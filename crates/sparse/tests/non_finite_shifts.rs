//! A shift with an infinite or NaN component is an invalid argument to
//! `ShiftedPencil`, not a singular pencil: `G + sC` would carry non-finite
//! entries, and the pivot search would report the first column it cannot
//! pivot on as `Singular`.

use bdsm_linalg::{Complex64, LinalgError};
use bdsm_sparse::{CscMatrix, LuWorkspace, Scalar, ShiftedPencil, SparseLu};

fn invalid<T: Scalar>(r: Result<SparseLu<T>, LinalgError>) -> bool {
    matches!(r, Err(LinalgError::InvalidArgument { .. }))
}

#[test]
fn non_finite_shifts_are_invalid_arguments() {
    let g = CscMatrix::from_triplets(
        2,
        2,
        &[(0, 0, 2.5), (1, 0, -1.2), (0, 1, -1.0), (1, 1, 2.6)],
    )
    .unwrap();
    let c = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
    let pencil = ShiftedPencil::new(&g, &c).unwrap();
    for s in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        assert!(invalid(pencil.factor_real(s)), "{s}");
        assert!(invalid(pencil.factor_real_with(s, &mut LuWorkspace::new())));
    }
    // `norm_inf` of a complex shift would let a NaN part through
    // (`f64::max` ignores NaN), so every part is checked.
    for s in [
        Complex64::new(f64::NAN, 1.0),
        Complex64::new(1.0, f64::NAN),
        Complex64::new(0.0, f64::INFINITY),
        Complex64::new(f64::NEG_INFINITY, 0.0),
    ] {
        assert!(invalid(pencil.factor_complex(s)), "{s:?}");
        assert!(invalid(
            pencil.factor_complex_with(s, &mut LuWorkspace::new())
        ));
    }
    // The largest finite shifts still factor.
    assert!(pencil.factor_real(f64::MAX).is_ok());
    assert!(pencil.factor_complex(Complex64::jomega(f64::MAX)).is_ok());
}
