//! Bitwise parity of the two dense LUs against the textbook row-major
//! elimination they replaced.
//!
//! `ZLu::factor_shifted` runs on split real/imaginary row slices and
//! `DenseLu::factor` on row slices; both promise the same per-entry
//! operations in the same order as the indexed loops below — the same
//! `G + sC` assembly, pivot rule, zero-multiplier skip and row update — so
//! every solution, determinant and `Singular { at }` must be the same bits.
//! The oracles here are those loops, kept verbatim; nothing in the library
//! shares code with them.
//!
//! `ZLu::solve_multi` is held to the oracle's column-by-column solves the
//! same way, over every column-group width; the last two tests pin its
//! shape contract (no `m = 0` solve, an empty pencil, a model with no
//! inputs).
//!
//! The one intended divergence is the tiny-pivot fix: a `ZLu` pivot whose
//! `|z|²` underflows is no longer mistaken for zero. Only inputs the oracle
//! refuses reach it (`transfer::tests::zlu_factors_an_invertible_matrix_of_tiny_entries`).

use bdsm_core::transfer::{eval_transfer_factored, CMatrix, ZLu};
use bdsm_linalg::{Complex64, DenseLu, LinalgError, Matrix};

/// The row-major interleaved complex LU, as `ZLu` computed it before it
/// moved to split storage.
struct OracleZLu {
    n: usize,
    lu: Vec<Complex64>,
    perm: Vec<usize>,
}

impl OracleZLu {
    fn factor_shifted(g: &Matrix, c: &Matrix, s: Complex64) -> Result<Self, LinalgError> {
        let n = g.nrows();
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
        Ok(OracleZLu { n, lu, perm })
    }

    #[allow(clippy::needless_range_loop)]
    fn solve(&self, b: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
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
        x
    }
}

/// The indexed real LU, as `DenseLu` computed it before the row-slice form.
struct OracleLu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
}

impl OracleLu {
    fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.nrows();
        let mut lu = a.as_slice().to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            let mut piv = k;
            let mut pmax = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
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
                    lu.swap(k * n + j, piv * n + j);
                }
            }
            let inv_piv = 1.0 / lu[k * n + k];
            for i in (k + 1)..n {
                let lik = lu[i * n + k] * inv_piv;
                lu[i * n + k] = lik;
                if lik != 0.0 {
                    for j in (k + 1)..n {
                        let u = lu[k * n + j];
                        lu[i * n + j] -= lik * u;
                    }
                }
            }
        }
        Ok(OracleLu { n, lu, perm, sign })
    }

    #[allow(clippy::needless_range_loop)]
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
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
        x
    }

    fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

/// Xorshift64 in `[-0.5, 0.5)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    /// A value that is exactly zero with probability `zeros`.
    fn sparse(&mut self, zeros: f64) -> f64 {
        if self.next() + 0.5 < zeros {
            0.0
        } else {
            self.next()
        }
    }

    fn complex(&mut self) -> Complex64 {
        Complex64::new(self.next(), self.next())
    }
}

fn bits(z: &[Complex64]) -> Vec<(u64, u64)> {
    z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn real_bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Right-hand sides that exercise every solve path: random complex, unit
/// vectors at both ends, and one with signed zeros.
fn complex_rhs(n: usize, rng: &mut Rng) -> Vec<Vec<Complex64>> {
    let mut out = vec![(0..n).map(|_| rng.complex()).collect::<Vec<_>>()];
    for k in [0, n - 1] {
        out.push(
            (0..n)
                .map(|i| Complex64::from_real(f64::from(i == k)))
                .collect(),
        );
    }
    out.push(
        (0..n)
            .map(|i| Complex64::new(-0.0, if i % 2 == 0 { 0.0 } else { 1e-3 }))
            .collect(),
    );
    out
}

fn real_rhs(n: usize, rng: &mut Rng) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..n).map(|_| rng.next()).collect())
        .collect();
    out.push(
        (0..n)
            .map(|i| if i % 3 == 0 { -0.0 } else { 1.0 })
            .collect(),
    );
    out
}

/// Factors `G + sC` both ways and asserts the same verdict, and on success
/// the same bits from `solve` and `solve_real` on several right-hand sides.
fn assert_zlu_parity(what: &str, g: &Matrix, c: &Matrix, s: Complex64, rng: &mut Rng) {
    let n = g.nrows();
    match (
        ZLu::factor_shifted(g, c, s),
        OracleZLu::factor_shifted(g, c, s),
    ) {
        (Ok(lu), Ok(oracle)) => {
            assert_eq!(lu.dim(), n, "{what}");
            for b in complex_rhs(n, rng) {
                assert_eq!(
                    bits(&lu.solve(&b).unwrap()),
                    bits(&oracle.solve(&b)),
                    "{what}: solve"
                );
            }
            for b in real_rhs(n, rng) {
                let zb: Vec<Complex64> = b.iter().map(|&v| Complex64::from_real(v)).collect();
                assert_eq!(
                    bits(&lu.solve_real(&b).unwrap()),
                    bits(&oracle.solve(&zb)),
                    "{what}: solve_real"
                );
            }
        }
        (Err(e), Err(o)) => assert_eq!(e, o, "{what}: verdicts differ"),
        (got, want) => panic!(
            "{what}: ZLu {:?} but the oracle {:?}",
            got.err(),
            want.err()
        ),
    }
}

fn assert_dense_lu_parity(what: &str, a: &Matrix, rng: &mut Rng) {
    match (DenseLu::factor(a), OracleLu::factor(a)) {
        (Ok(lu), Ok(oracle)) => {
            assert_eq!(lu.det().to_bits(), oracle.det().to_bits(), "{what}: det");
            for b in real_rhs(a.nrows(), rng) {
                assert_eq!(
                    real_bits(&lu.solve(&b).unwrap()),
                    real_bits(&oracle.solve(&b)),
                    "{what}: solve"
                );
            }
        }
        (Err(e), Err(o)) => assert_eq!(e, o, "{what}: verdicts differ"),
        (got, want) => panic!(
            "{what}: DenseLu {:?} but the oracle {:?}",
            got.err(),
            want.err()
        ),
    }
}

const SIZES: [usize; 8] = [1, 2, 3, 8, 63, 64, 65, 200];

#[test]
fn zlu_matches_the_row_major_kernel_on_random_pencils() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for n in SIZES {
        for zeros in [0.0, 0.6] {
            let g = Matrix::from_fn(n, n, |_, _| rng.sparse(zeros));
            let c = Matrix::from_fn(n, n, |_, _| rng.sparse(zeros));
            for s in [rng.complex(), Complex64::jomega(450.0), Complex64::ZERO] {
                assert_zlu_parity(&format!("n={n} zeros={zeros} s={s}"), &g, &c, s, &mut rng);
            }
        }
    }
}

/// The Exact-ROM shape: dense diagonal blocks coupled only through a
/// trailing border, so most multipliers of the block steps are exactly
/// zero and their row updates are skipped.
fn arrow(n: usize, blocks: usize, border: usize, rng: &mut Rng) -> Matrix {
    let inner = n - border;
    let block_of = |i: usize| i * blocks / inner;
    Matrix::from_fn(n, n, |i, j| {
        let coupled = i >= inner || j >= inner || block_of(i) == block_of(j);
        let v = if coupled { rng.next() } else { 0.0 };
        if i == j {
            v + 4.0
        } else {
            v
        }
    })
}

#[test]
fn zlu_matches_on_arrow_pencils_with_many_zero_multipliers() {
    let mut rng = Rng(7);
    for (n, blocks, border) in [(40, 4, 6), (120, 4, 30), (65, 5, 1)] {
        let g = arrow(n, blocks, border, &mut rng);
        let c = arrow(n, blocks, border, &mut rng);
        for s in [Complex64::jomega(3.0), Complex64::new(0.25, -2.0)] {
            assert_zlu_parity(&format!("arrow n={n}"), &g, &c, s, &mut rng);
        }
    }
}

#[test]
fn zlu_matches_under_forced_row_swaps_and_signed_zeros() {
    let mut rng = Rng(11);
    for n in [2, 9, 64] {
        // A zero diagonal in both G and C forces a swap at every step.
        let zero_diag =
            |rng: &mut Rng| Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { rng.next() });
        let (g, c) = (zero_diag(&mut rng), zero_diag(&mut rng));
        assert_zlu_parity(
            &format!("zero diagonal n={n}"),
            &g,
            &c,
            rng.complex(),
            &mut rng,
        );
        // `−0.0` in G where C is zero: the assembled entry, and every
        // multiplier built from it, carries the sign through the skip test.
        let g = Matrix::from_fn(n, n, |i, j| {
            if (i + j) % 3 == 0 && i != j {
                -0.0
            } else {
                rng.next()
            }
        });
        let c = Matrix::from_fn(n, n, |i, j| {
            if (i + j) % 3 == 0 && i != j {
                0.0
            } else {
                rng.next()
            }
        });
        for s in [
            Complex64::jomega(2.0),
            Complex64::new(-1.5, 0.5),
            Complex64::ZERO,
        ] {
            assert_zlu_parity(&format!("signed zeros n={n}"), &g, &c, s, &mut rng);
        }
        // `G` ties every first-step candidate at |1| and `C` turns half of
        // them into `±j`: the first maximum must win.
        let mut g = tied(n, &mut rng);
        let mut c = Matrix::zeros(n, n);
        for i in (1..n).step_by(2) {
            (g[(i, 0)], c[(i, 0)]) = (0.0, 1.0);
        }
        let s = Complex64::jomega(1.0);
        assert_zlu_parity(&format!("tied magnitudes n={n}"), &g, &c, s, &mut rng);
    }
}

/// Random entries except a `±1` first column, so every first-step pivot
/// candidate ties in magnitude while the rest of the elimination rounds.
fn tied(n: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(n, n, |i, j| match j {
        0 if i % 3 == 1 => -1.0,
        0 => 1.0,
        _ => rng.next(),
    })
}

/// An infinite entry in the first pivot row over an otherwise diagonal
/// matrix: every first-step multiplier is zero, so the skipped row updates
/// never form `0·∞` and the factorization succeeds.
fn infinite_pivot_row(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| match (i, j) {
        (0, j) if j == n - 1 => f64::INFINITY,
        (i, j) if i == j => 2.0 + i as f64,
        _ => 0.0,
    })
}

#[test]
fn zlu_skips_zero_multipliers_past_an_infinite_entry() {
    let mut rng = Rng(13);
    let g = infinite_pivot_row(5);
    let c = Matrix::zeros(5, 5);
    assert!(ZLu::factor_shifted(&g, &c, Complex64::jomega(1.0)).is_ok());
    assert_zlu_parity("∞ in a pivot row", &g, &c, Complex64::jomega(1.0), &mut rng);
}

#[test]
fn zlu_reports_the_same_singular_step() {
    let mut rng = Rng(5);
    let n = 12;
    // A zero column stays zero under elimination: Singular at that step.
    for col in [0, 5, n - 1] {
        let g = Matrix::from_fn(n, n, |_, j| if j == col { 0.0 } else { rng.next() });
        let c = Matrix::from_fn(n, n, |_, j| if j == col { 0.0 } else { rng.next() });
        assert_zlu_parity(
            &format!("zero column {col}"),
            &g,
            &c,
            Complex64::jomega(1.0),
            &mut rng,
        );
        assert!(matches!(
            ZLu::factor_shifted(&g, &c, Complex64::jomega(1.0)),
            Err(LinalgError::Singular { .. })
        ));
    }
    // s at a generalized eigenvalue: G = 0, C = I, s = 0.
    assert_zlu_parity(
        "G = 0, s = 0",
        &Matrix::zeros(n, n),
        &Matrix::identity(n),
        Complex64::ZERO,
        &mut rng,
    );
}

#[test]
fn zlu_reports_the_same_nan_pivot() {
    let mut rng = Rng(3);
    let n = 6;
    let base = Matrix::from_fn(n, n, |i, j| if i == j { 3.0 } else { rng.next() });
    for (i, j) in [(0, 0), (2, 2), (4, 2), (n - 1, n - 1)] {
        let mut g = base.clone();
        g[(i, j)] = f64::NAN;
        assert_zlu_parity(
            &format!("NaN at ({i},{j})"),
            &g,
            &Matrix::identity(n),
            Complex64::jomega(1.0),
            &mut rng,
        );
    }
}

#[test]
fn dense_lu_matches_the_indexed_kernel() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for n in SIZES {
        for zeros in [0.0, 0.6] {
            let a = Matrix::from_fn(n, n, |_, _| rng.sparse(zeros));
            assert_dense_lu_parity(&format!("random n={n} zeros={zeros}"), &a, &mut rng);
        }
    }
    for (n, blocks, border) in [(40, 4, 6), (120, 4, 30)] {
        let a = arrow(n, blocks, border, &mut rng);
        assert_dense_lu_parity(&format!("arrow n={n}"), &a, &mut rng);
    }
    for n in [2, 9, 64] {
        let a = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { rng.next() });
        assert_dense_lu_parity(&format!("zero diagonal n={n}"), &a, &mut rng);
        let a = Matrix::from_fn(n, n, |i, j| {
            if (i + j) % 3 == 0 && i != j {
                -0.0
            } else {
                rng.next()
            }
        });
        assert_dense_lu_parity(&format!("signed zeros n={n}"), &a, &mut rng);
        let a = tied(n, &mut rng);
        assert_dense_lu_parity(&format!("tied magnitudes n={n}"), &a, &mut rng);
    }
    let a = infinite_pivot_row(5);
    assert!(DenseLu::factor(&a).is_ok());
    assert_dense_lu_parity("∞ in a pivot row", &a, &mut rng);
    let n = 12;
    for col in [0, 5, n - 1] {
        let a = Matrix::from_fn(n, n, |_, j| if j == col { 0.0 } else { rng.next() });
        assert_dense_lu_parity(&format!("zero column {col}"), &a, &mut rng);
        assert!(DenseLu::factor(&a).is_err());
    }
    for (i, j) in [(0, 0), (2, 2), (4, 2)] {
        let mut a = Matrix::from_fn(6, 6, |i, j| if i == j { 3.0 } else { rng.next() });
        a[(i, j)] = f64::NAN;
        assert_dense_lu_parity(&format!("NaN at ({i},{j})"), &a, &mut rng);
    }
}

/// Column-major `n × m` panels of random entries with `+0.0` and `−0.0`
/// mixed in; from `m = 2` on, column 1 also carries an infinite entry.
fn complex_panel(n: usize, m: usize, rng: &mut Rng) -> Vec<Complex64> {
    let mut b: Vec<Complex64> = (0..n * m)
        .map(|e| match e % 5 {
            0 => Complex64::new(0.0, -0.0),
            1 => Complex64::new(-0.0, 0.0),
            _ => rng.complex(),
        })
        .collect();
    if m > 1 {
        b[n + n / 2] = Complex64::new(f64::INFINITY, 0.0);
    }
    b
}

fn real_panel(n: usize, m: usize, rng: &mut Rng) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n * m)
        .map(|e| match e % 4 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next(),
        })
        .collect();
    if m > 1 {
        b[n + n / 2] = f64::NEG_INFINITY;
    }
    b
}

/// `solve_multi` and `solve_multi_real` against the oracle's
/// column-by-column solves, over every kernel width (1–4) and a remainder
/// group (5 = 4 + 1, 9 = 4 + 4 + 1).
fn assert_solve_multi_parity(what: &str, g: &Matrix, c: &Matrix, s: Complex64, rng: &mut Rng) {
    let n = g.nrows();
    let (Ok(lu), Ok(oracle)) = (
        ZLu::factor_shifted(g, c, s),
        OracleZLu::factor_shifted(g, c, s),
    ) else {
        return; // verdict parity is `assert_zlu_parity`'s job
    };
    for m in [1, 2, 3, 4, 5, 9] {
        let b = complex_panel(n, m, rng);
        let want: Vec<Complex64> = b
            .chunks_exact(n)
            .flat_map(|col| oracle.solve(col))
            .collect();
        assert_eq!(
            bits(&lu.solve_multi(&b, m).unwrap()),
            bits(&want),
            "{what}: solve_multi m={m}"
        );
        let b = real_panel(n, m, rng);
        let want: Vec<Complex64> = b
            .chunks_exact(n)
            .flat_map(|col| {
                let zb: Vec<Complex64> = col.iter().map(|&v| Complex64::from_real(v)).collect();
                oracle.solve(&zb)
            })
            .collect();
        assert_eq!(
            bits(&lu.solve_multi_real(&b, m).unwrap()),
            bits(&want),
            "{what}: solve_multi_real m={m}"
        );
    }
}

#[test]
fn zlu_solve_multi_matches_column_solves_on_random_pencils() {
    let mut rng = Rng(0x51_7cc1_b727_220a);
    for n in SIZES {
        for zeros in [0.0, 0.6] {
            let g = Matrix::from_fn(n, n, |_, _| rng.sparse(zeros));
            let c = Matrix::from_fn(n, n, |_, _| rng.sparse(zeros));
            let s = rng.complex();
            assert_solve_multi_parity(&format!("n={n} zeros={zeros}"), &g, &c, s, &mut rng);
        }
    }
}

#[test]
fn zlu_solve_multi_matches_on_arrow_pencils() {
    let mut rng = Rng(17);
    for (n, blocks, border) in [(40, 4, 6), (120, 4, 30), (65, 5, 1)] {
        let g = arrow(n, blocks, border, &mut rng);
        let c = arrow(n, blocks, border, &mut rng);
        let s = Complex64::jomega(3.0);
        assert_solve_multi_parity(&format!("arrow n={n}"), &g, &c, s, &mut rng);
    }
}

#[test]
fn zlu_solve_multi_matches_under_forced_swaps_and_signed_zeros() {
    let mut rng = Rng(19);
    for n in [2, 9, 64] {
        let zero_diag =
            |rng: &mut Rng| Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { rng.next() });
        let (g, c) = (zero_diag(&mut rng), zero_diag(&mut rng));
        let s = rng.complex();
        assert_solve_multi_parity(&format!("zero diagonal n={n}"), &g, &c, s, &mut rng);
        let g = Matrix::from_fn(n, n, |i, j| {
            if (i + j) % 3 == 0 && i != j {
                -0.0
            } else {
                rng.next()
            }
        });
        let c = Matrix::from_fn(n, n, |i, j| {
            if (i + j) % 3 == 0 && i != j {
                0.0
            } else {
                rng.next()
            }
        });
        let s = Complex64::jomega(2.0);
        assert_solve_multi_parity(&format!("signed zeros n={n}"), &g, &c, s, &mut rng);
    }
}

#[test]
fn zlu_solve_multi_rejects_bad_shapes() {
    let (g, c) = (Matrix::from_rows(&[&[2.0]]), Matrix::from_rows(&[&[0.5]]));
    let lu = ZLu::factor_shifted(&g, &c, Complex64::jomega(1.0)).unwrap();
    for (len, m) in [(0, 0), (1, 0), (3, 2), (1, 2), (0, 1)] {
        let (lhs, rhs) = ((1, m), (len, 1));
        let err = LinalgError::ShapeMismatch {
            op: "zlu-solve-multi",
            lhs,
            rhs,
        };
        assert_eq!(
            lu.solve_multi(&vec![Complex64::ONE; len], m),
            Err(err.clone())
        );
        assert_eq!(lu.solve_multi_real(&vec![1.0; len], m), Err(err));
    }
}

#[test]
fn zero_inputs_give_an_empty_sample_and_an_empty_pencil_solves() {
    let (g, c) = (Matrix::from_rows(&[&[2.0]]), Matrix::from_rows(&[&[0.5]]));
    let l = Matrix::from_rows(&[&[1.0]]);
    let lu = ZLu::factor_shifted(&g, &c, Complex64::jomega(1.0)).unwrap();
    // Never `solve_multi(.., 0)`, which is a shape error.
    let h = eval_transfer_factored(&lu, &Matrix::zeros(1, 0), &l);
    assert_eq!(h, Ok(CMatrix::zeros(1, 0)));
    let empty = Matrix::zeros(0, 0);
    let lu = ZLu::factor_shifted(&empty, &empty, Complex64::jomega(1.0)).unwrap();
    assert_eq!(lu.solve(&[]), Ok(vec![]));
    assert_eq!(lu.solve_multi_real(&[], 3), Ok(vec![]));
    let h = eval_transfer_factored(&lu, &Matrix::zeros(0, 2), &Matrix::zeros(1, 0));
    assert_eq!(h, Ok(CMatrix::zeros(1, 2)));
}
