//! A reduced model with a NaN or ±∞ entry in `G_r`, `C_r` or a
//! positive-real sample gets a typed error from the certificate, not a
//! verdict: an eigenvalue margin once dropped a NaN diagonal entry and
//! certified `G_r = I₃` with `G_r[1][1] = NaN` as stable and passive.

use bdsm_core::{certify_reduced, CMatrix, CertStatus, CoreError};
use bdsm_linalg::{Complex64, LinalgError, Matrix};

#[test]
fn a_non_finite_reduced_conductance_is_refused() {
    let b = Matrix::from_fn(3, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
    let l = b.transpose();
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (poison_g, at) in [(true, (1, 1)), (false, (1, 1)), (false, (0, 2))] {
            let (mut g, mut c) = (Matrix::identity(3), Matrix::identity(3));
            if poison_g {
                g[at] = v;
            } else {
                c[at] = v;
            }
            let res = certify_reduced(&g, &c, &b, &l, &[1.0, 10.0], None, None);
            assert!(
                matches!(
                    res,
                    Err(CoreError::Linalg(LinalgError::InvalidArgument { .. }))
                ),
                "{}{at:?} = {v}: {:?}",
                if poison_g { "G_r" } else { "C_r" },
                res.map(|cert| cert.status)
            );
        }
    }
    let c = Matrix::identity(3);
    let cert = certify_reduced(&Matrix::identity(3), &c, &b, &l, &[1.0], None, None).unwrap();
    assert_eq!(cert.status, CertStatus::Certified);
}

#[test]
fn a_non_finite_sample_is_refused() {
    let b = Matrix::identity(2);
    let omegas = [1.0, 10.0];
    let samples = |poison: Option<(usize, (usize, usize), Complex64)>| {
        let mut hs = vec![CMatrix::zeros(2, 2), CMatrix::zeros(2, 2)];
        for h in &mut hs {
            h[(0, 0)] = Complex64::from_real(1.0);
            h[(1, 1)] = Complex64::from_real(1.0);
        }
        if let Some((k, at, v)) = poison {
            hs[k][at] = v;
        }
        certify_reduced(&b, &b, &b, &b, &omegas, Some(&hs), None)
    };
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (k, at, z) in [
            (0, (1, 1), Complex64::from_real(v)),
            (1, (0, 1), Complex64::new(0.0, v)),
        ] {
            let res = samples(Some((k, at, z)));
            assert!(
                matches!(
                    res,
                    Err(CoreError::Linalg(LinalgError::InvalidArgument { .. }))
                ),
                "sample {k}{at:?} = {z:?}: {:?}",
                res.map(|cert| cert.status)
            );
        }
    }
    assert_eq!(samples(None).unwrap().status, CertStatus::Certified);
}
