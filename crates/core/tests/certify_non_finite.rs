//! A reduced model with a NaN or ±∞ entry in `G_r` gets a typed error from
//! the certificate, not a verdict: the semidefiniteness margins used to
//! drop a NaN diagonal entry and certify `G_r = I₃` with `G_r[1][1] = NaN`
//! as stable and passive with margin 1.

use bdsm_core::{certify_reduced, CoreError};
use bdsm_linalg::{LinalgError, Matrix};

#[test]
fn a_non_finite_reduced_conductance_is_refused() {
    let c = Matrix::identity(3);
    let b = Matrix::from_fn(3, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
    let l = b.transpose();
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut g = Matrix::identity(3);
        g[(1, 1)] = v;
        let res = certify_reduced(&g, &c, &b, &l, &[1.0, 10.0], None, None);
        assert!(
            matches!(
                res,
                Err(CoreError::Linalg(LinalgError::InvalidArgument { .. }))
            ),
            "G_r[1][1] = {v}: {:?}",
            res.map(|cert| cert.status)
        );
    }
    let cert = certify_reduced(&Matrix::identity(3), &c, &b, &l, &[1.0], None, None).unwrap();
    assert_eq!(cert.passivity.g_sym_min_eig, 1.0);
}
