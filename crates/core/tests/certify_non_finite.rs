//! A reduced model with a NaN or ±∞ entry in `G_r`, `C_r` or a
//! positive-real sample gets a typed error from the certificate, not a
//! verdict: an eigenvalue margin once dropped a NaN diagonal entry and
//! certified `G_r = I₃` with `G_r[1][1] = NaN` as stable and passive.
//! Parallel lists that disagree in length are refused the same way.

use bdsm_core::{certify_reduced, CMatrix, CertStatus, CoreError, ResidualSweep};
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

/// Given samples that are not one per sampled frequency once produced a
/// violation index past the recorded grid (`omegas = [1]`, two samples)
/// or a certified envelope over a frequency nothing sampled
/// (`omegas = [1, 1e6]`, one sample); a residual sweep with a residual
/// list of another length is refused too.
#[test]
fn mismatched_parallel_lists_are_refused() {
    let one = Matrix::identity(1);
    let sample = |h: f64| {
        let mut m = CMatrix::zeros(1, 1);
        m[(0, 0)] = Complex64::from_real(h);
        m
    };
    let refused = |res: Result<bdsm_core::Certificate, CoreError>, what: &str| {
        assert!(
            matches!(
                res,
                Err(CoreError::Linalg(LinalgError::InvalidArgument { .. }))
            ),
            "{what}: {:?}",
            res.map(|cert| (cert.status, cert.passivity.violations))
        );
    };
    let two = [sample(1.0), sample(-1.0)];
    refused(
        certify_reduced(&one, &one, &one, &one, &[1.0], Some(&two), None),
        "one frequency, two samples",
    );
    let single = [sample(1.0)];
    refused(
        certify_reduced(&one, &one, &one, &one, &[1.0, 1.0e6], Some(&single), None),
        "two frequencies, one sample",
    );
    let sweep = ResidualSweep {
        omegas: vec![1.0, 10.0],
        residuals: vec![1e-9],
        worst: 1e-9,
        worst_omega: 1.0,
    };
    refused(
        certify_reduced(&one, &one, &one, &one, &[1.0], None, Some(&sweep)),
        "residual sweep, two frequencies, one residual",
    );
    // Matching lists still certify.
    let cert = certify_reduced(&one, &one, &one, &one, &[1.0], Some(&single), None).unwrap();
    assert_eq!(cert.status, CertStatus::Certified);
}
