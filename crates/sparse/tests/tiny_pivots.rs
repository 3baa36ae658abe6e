//! `SparseLu` on matrices whose entries are all tiny: below |x| ≈ 1.5e-162
//! every candidate's |x|² underflows to zero, and the factorization must
//! still pivot on the values instead of reporting the matrix singular —
//! under both numeric kernels, at `s = 0` on `(A, 0)` and at real and
//! imaginary shifts of a tiny pencil. A column that is exactly zero must
//! still be refused.

use bdsm_linalg::{Complex64, LinalgError};
use bdsm_sparse::{CscMatrix, FillOrdering, NumericKernel, Scalar, ShiftedPencil, SparseLu};

const KERNELS: [NumericKernel; 2] = [NumericKernel::Scalar, NumericKernel::Supernodal];

/// 2⁻⁵⁶⁵ ≈ 1.2e-170: a power of two, so scaling by it is exact.
fn tiny() -> f64 {
    2f64.powi(-565)
}

/// 5-point mesh `G` with shunt loads and a diagonal `C`: the default
/// ordering's separators become supernodes.
fn mesh(side: usize) -> (CscMatrix<f64>, CscMatrix<f64>) {
    let n = side * side;
    let (mut tg, mut tc) = (Vec::new(), Vec::new());
    for i in 0..n {
        let (r, c) = (i / side, i % side);
        let neighbours = [
            (r > 0).then(|| i - side),
            (r + 1 < side).then(|| i + side),
            (c > 0).then(|| i - 1),
            (c + 1 < side).then(|| i + 1),
        ];
        let mut deg = 0.05;
        for j in neighbours.into_iter().flatten() {
            tg.push((i, j, -1.0));
            deg += 1.0;
        }
        tg.push((i, i, deg));
        tc.push((i, i, 1e-3 * (1.0 + 0.1 * (i % 7) as f64)));
    }
    (
        CscMatrix::from_triplets(n, n, &tg).unwrap(),
        CscMatrix::from_triplets(n, n, &tc).unwrap(),
    )
}

/// `a` factored as the pencil `(a, 0)` at `s = 0`.
fn factor(
    a: &CscMatrix<f64>,
    kind: FillOrdering,
    kernel: NumericKernel,
) -> Result<SparseLu<f64>, LinalgError> {
    let zero = CscMatrix::from_triplets(a.nrows(), a.ncols(), &[])?;
    ShiftedPencil::with_ordering(a, &zero, kind)?
        .with_numeric_kernel(kernel)
        .factor_real(0.0)
}

fn rel_err<T: Scalar>(x: &[T], want: &[T]) -> f64 {
    let num: f64 = x.iter().zip(want).map(|(&a, &b)| (a - b).abs_sq()).sum();
    let den: f64 = want.iter().map(|&b| b.abs_sq()).sum();
    (num / den).sqrt()
}

#[test]
fn a_two_by_two_of_tiny_entries_factors() {
    let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 3.0)])
        .unwrap()
        .scaled(1e-170);
    assert!(a.iter().all(|(_, _, v)| v.abs_sq() == 0.0));
    let x = factor(&a, FillOrdering::default(), NumericKernel::default())
        .unwrap()
        .solve(&[3e-170, 4e-170])
        .unwrap();
    assert!(rel_err(&x, &[1.0, 1.0]) < 1e-15, "{x:?}");
    let zero = CscMatrix::from_triplets(2, 2, &[]).unwrap();
    for kernel in KERNELS {
        let pencil = ShiftedPencil::new(&a, &zero)
            .unwrap()
            .with_numeric_kernel(kernel);
        let x = pencil
            .factor_real(1.0)
            .unwrap()
            .solve(&[3e-170, 4e-170])
            .unwrap();
        assert!(rel_err(&x, &[1.0, 1.0]) < 1e-15, "{kernel:?}: {x:?}");
        let z = pencil.factor_complex(Complex64::jomega(2.0)).unwrap();
        let z = z.solve_real(&[3e-170, 4e-170]).unwrap();
        assert!(
            rel_err(&z, &[Complex64::ONE; 2]) < 1e-15,
            "{kernel:?}: {z:?}"
        );
    }
}

/// A mesh scaled by [`tiny`] factors and solves like the unscaled mesh, at
/// a real and at an imaginary shift, with supernodes open.
#[test]
fn a_tiny_mesh_solves_like_the_unscaled_one() {
    let (g, c) = mesh(12);
    let n = g.nrows();
    let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin() + 0.5).collect();
    let b_tiny: Vec<f64> = b.iter().map(|v| v * tiny()).collect();
    for kernel in KERNELS {
        let pencil = ShiftedPencil::new(&g, &c)
            .unwrap()
            .with_numeric_kernel(kernel);
        let tiny_pencil = ShiftedPencil::new(&g.scaled(tiny()), &c.scaled(tiny()))
            .unwrap()
            .with_numeric_kernel(kernel);
        let lu = tiny_pencil.factor_real(1.0).unwrap();
        if kernel == NumericKernel::Supernodal {
            assert!(lu.solve_panel_count() > 0, "no supernode opened");
        }
        let want = pencil.factor_real(1.0).unwrap().solve(&b).unwrap();
        let rel = rel_err(&lu.solve(&b_tiny).unwrap(), &want);
        assert!(rel < 1e-12, "{kernel:?} real shift: {rel}");

        let s = Complex64::jomega(300.0);
        let want = pencil.factor_complex(s).unwrap().solve_real(&b).unwrap();
        let z = tiny_pencil
            .factor_complex(s)
            .unwrap()
            .solve_real(&b_tiny)
            .unwrap();
        let rel = rel_err(&z, &want);
        assert!(rel < 1e-12, "{kernel:?} jω shift: {rel}");

        let direct = factor(&g.scaled(tiny()), FillOrdering::Natural, kernel).unwrap();
        let want = factor(&g, FillOrdering::Natural, kernel).unwrap();
        let rel = rel_err(&direct.solve(&b_tiny).unwrap(), &want.solve(&b).unwrap());
        assert!(rel < 1e-12, "{kernel:?} natural order: {rel}");
    }
}

#[test]
fn a_zero_column_among_tiny_ones_is_still_singular() {
    // Column 2 stores only exact zeros; the others are tiny but usable.
    let a = CscMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 2.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (0, 2, 0.0),
            (2, 2, 0.0),
        ],
    )
    .unwrap()
    .scaled(1e-170);
    for kernel in KERNELS {
        assert!(matches!(
            factor(&a, FillOrdering::Natural, kernel),
            Err(LinalgError::Singular { at: 2 })
        ));
    }
}
