//! The dense SVD refuses a matrix with a NaN or ±∞ entry with a typed
//! `InvalidArgument`, instead of returning values computed from it (a NaN
//! on the diagonal used to vanish from one of the singular values).

use bdsm_linalg::{LinalgError, Matrix, Svd};

const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

fn assert_invalid<T: std::fmt::Debug>(res: Result<T, LinalgError>, what: &str) {
    assert!(
        matches!(res, Err(LinalgError::InvalidArgument { .. })),
        "{what}: {res:?}"
    );
}

#[test]
fn svd_refuses_non_finite_entries() {
    for v in BAD {
        for (i, j) in [(0, 0), (2, 1)] {
            let mut tall = Matrix::from_fn(3, 2, |r, c| (1 + r + 2 * c) as f64);
            tall[(i, j)] = v;
            assert_invalid(Svd::compute(&tall), "Svd::compute (tall)");
            assert_invalid(Svd::compute(&tall.transpose()), "Svd::compute (wide)");
        }
    }
    let ok = Svd::compute(&Matrix::from_fn(3, 2, |r, c| (1 + r + 2 * c) as f64)).unwrap();
    assert!(ok.sigma.iter().all(|s| s.is_finite()));
}
