//! The adaptive loop's residuals are relative errors, so a grid whose
//! transfer function is uniformly scaled must take the same rounds and
//! shifts as the unscaled one. Scaling every resistance by `α` and every
//! capacitance by `1/α` keeps the poles and multiplies `H` by `α`; at
//! `α = 1e-170` the squared Frobenius sum of a sample underflows and at
//! `α = 1e160` it overflows, which once read as a residual of 0 (a
//! certificate after one round) or NaN (skipped by the worst-residual
//! scan). The certificate must not move either: the scaling is a
//! congruence of the pencil, so `sym(G_r)` and `C_r` keep their inertia.
//! The same holds for the units of one port: rescaling its input and
//! output is a congruence of every positive-real sample.

use bdsm_core::engine::{AdaptiveShiftOpts, EngineReport, ReductionEngine, ShiftStrategy};
use bdsm_core::krylov::KrylovOpts;
use bdsm_core::reduce::{ReducedModel, ReductionOpts};
use bdsm_core::synth::rc_grid;
use bdsm_core::{certify_reduced, CertStatus, CheckOutcome};
use bdsm_linalg::Matrix;

fn candidate_omegas() -> Vec<f64> {
    AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6)
}

/// The adaptive reduce of a 20 × 25 mesh with `R × alpha` and
/// `C ÷ alpha`.
fn reduce(alpha: f64) -> (ReducedModel, EngineReport) {
    let net = rc_grid(20, 25, alpha, 1e-3 / alpha, 2.0 * alpha);
    let opts = ReductionOpts {
        num_blocks: 4,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![4.5e2],
            moments_per_point: 2,
            ..KrylovOpts::default()
        },
        max_reduced_dim: Some(2000),
        shift_strategy: ShiftStrategy::Adaptive(AdaptiveShiftOpts {
            candidate_omegas: candidate_omegas(),
            tol: 1e-6,
            max_shifts: 4,
        }),
        ..ReductionOpts::default()
    };
    ReductionEngine::new(&net, &opts)
        .and_then(|e| e.run())
        .expect("adaptive reduction")
}

/// `(rounds, shifts, q, residual trajectory)` of [`reduce`].
fn adaptive_run(alpha: f64) -> (usize, usize, usize, Vec<f64>) {
    let (rm, report) = reduce(alpha);
    (
        report.rounds.len(),
        report.shifts.len(),
        rm.reduced_dim(),
        report.rounds,
    )
}

#[test]
fn uniformly_scaled_grid_takes_the_unscaled_rounds_and_shifts() {
    let (rounds, shifts, q, reference) = adaptive_run(1.0);
    assert_eq!((rounds, shifts, q), (3, 3, 110), "unscaled grid");
    for alpha in [1e-170, 1e160] {
        let (r, s, dim, residuals) = adaptive_run(alpha);
        assert_eq!((r, s, dim), (rounds, shifts, q), "alpha = {alpha:e}");
        // The last residual sits near the rounding floor (≈ 6.5e-9), where
        // the scaled and unscaled runs part at the fourth digit.
        for (got, want) in residuals.iter().zip(&reference) {
            assert!(
                (got - want).abs() <= 1e-3 * want,
                "alpha = {alpha:e}: residual {got:e}, unscaled {want:e}"
            );
        }
    }
}

#[test]
fn uniformly_scaled_grid_keeps_its_certificate() {
    for alpha in [1.0, 1e-170, 1e160] {
        let (rm, report) = reduce(alpha);
        let cert = &report.certificate;
        assert_eq!(
            (cert.status, cert.stability),
            (CertStatus::Certified, CheckOutcome::Pass),
            "alpha = {alpha:e}"
        );
        // `−G_r` is negative definite at every scale.
        let negated = certify_reduced(
            &rm.g.scaled(-1.0),
            &rm.c,
            &rm.b,
            &rm.l,
            &candidate_omegas(),
            None,
            None,
        )
        .expect("certify the negated ROM");
        assert_eq!(
            (negated.status, negated.stability),
            (CertStatus::Violated, CheckOutcome::Fail),
            "negated G_r, alpha = {alpha:e}"
        );
    }
}

/// A diagonal 4-state 2-port ROM with `G = 3I` and `C = 2.5I`, port 0
/// expressed in units `eps` times smaller. Port 0 is active (`L` row 0 is
/// `−B` column 0ᵀ) when `active`, so `Re H₀₀ = −eps²·3/(9 + 6.25ω²)`
/// against `Re H₁₁ = 3/(9 + 6.25ω²)`: a ratio of `−eps²`, which an
/// eigenvalue margin of `−TOL·‖M‖max` lets through below `eps ≈ 1e-4`.
fn two_port_rom(eps: f64, active: bool) -> (Matrix, Matrix, Matrix, Matrix) {
    let n = 4;
    let g = Matrix::identity(n).scaled(3.0);
    let c = Matrix::identity(n).scaled(2.5);
    let mut b = Matrix::zeros(n, 2);
    b[(0, 0)] = eps;
    b[(1, 1)] = 1.0;
    let mut l = b.transpose();
    if active {
        l[(0, 0)] = -eps;
    }
    (g, c, b, l)
}

#[test]
fn an_active_port_is_violated_in_any_port_units() {
    for eps in [1.0, 1e-3, 1e-5, 1e-8] {
        for active in [true, false] {
            let (g, c, b, l) = two_port_rom(eps, active);
            let cert = certify_reduced(&g, &c, &b, &l, &[1.0, 10.0, 100.0], None, None)
                .expect("certify the two-port ROM");
            assert_eq!(cert.stability, CheckOutcome::Pass, "eps = {eps:e}");
            let (status, violations) = if active {
                (CertStatus::Violated, vec![0, 1, 2])
            } else {
                (CertStatus::Certified, vec![])
            };
            assert_eq!(
                (cert.status, &cert.passivity.violations),
                (status, &violations),
                "eps = {eps:e}, active port {active}"
            );
        }
    }
}
