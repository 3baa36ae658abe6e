//! The adaptive loop's residuals are relative errors, so a grid whose
//! transfer function is uniformly scaled must take the same rounds and
//! shifts as the unscaled one. Scaling every resistance by `α` and every
//! capacitance by `1/α` keeps the poles and multiplies `H` by `α`; at
//! `α = 1e-170` the squared Frobenius sum of a sample underflows and at
//! `α = 1e160` it overflows, which once read as a residual of 0 (a
//! certificate after one round) or NaN (skipped by the worst-residual
//! scan). The certificate must not move either: the scaling is a
//! congruence of the pencil, so `sym(G_r)` and `C_r` keep their inertia.

use bdsm_core::engine::{AdaptiveShiftOpts, EngineReport, ReductionEngine, ShiftStrategy};
use bdsm_core::krylov::KrylovOpts;
use bdsm_core::reduce::{ReducedModel, ReductionOpts};
use bdsm_core::synth::rc_grid;
use bdsm_core::{certify_reduced, CertStatus, CheckOutcome};

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
    let residuals = report.rounds.iter().map(|r| r.worst_residual).collect();
    (
        report.rounds.len(),
        report.shifts.len(),
        rm.reduced_dim(),
        residuals,
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
