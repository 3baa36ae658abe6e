//! End-to-end acceptance tests for the BDSM pipeline.
//!
//! On synthetic RC ladder/grid networks with n ≥ 200 states and k ≥ 4
//! blocks, the reduced transfer function must match the full model at ≥ 10
//! sample frequencies with relative error ≤ 1e-6, the projector must be
//! verifiably block-diagonal, and the reduced dimension must be ≤ n/5.

use bdsm_core::krylov::KrylovOpts;
use bdsm_core::reduce::{reduce_network, ReducedModel, ReductionOpts};
use bdsm_core::synth::{ieee_like_feeder, rc_grid, rc_ladder, rc_ladder_loaded};
use bdsm_core::transfer::{eval_transfer, transfer_rel_err, SparseTransferEvaluator};
use bdsm_linalg::Complex64;

/// Log-spaced angular frequencies in `[lo, hi]`.
fn log_freqs(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..count)
        .map(|i| (llo + (lhi - llo) * i as f64 / (count - 1) as f64).exp())
        .collect()
}

/// Asserts the three acceptance properties on a reduced model.
fn check_acceptance(rm: &ReducedModel, min_blocks: usize, omegas: &[f64], tol: f64) {
    let n = rm.full_dim();
    let q = rm.reduced_dim();

    // 1. Reduced dimension ≤ n/5.
    assert!(
        q * 5 <= n,
        "reduced dim {q} exceeds n/5 = {} (n = {n})",
        n / 5
    );

    // 2. Projector is verifiably block-diagonal with ≥ min_blocks blocks,
    //    orthonormal per block, and exactly zero off the block structure.
    assert!(rm.projector.num_blocks() >= min_blocks);
    assert!(rm.projector.orthonormality_error() < 1e-10);
    let dense = rm.projector.to_dense();
    let dims = rm.projector.block_dims();
    let mut r0 = 0;
    let mut c0 = 0;
    for (bi, &rows) in rm.block_sizes.iter().enumerate() {
        let cols = dims[bi];
        for i in 0..dense.nrows() {
            for j in 0..dense.ncols() {
                // An entry in this block's row band or column band but not
                // both lies off the block diagonal: must be exactly zero.
                let in_row_band = i >= r0 && i < r0 + rows;
                let in_col_band = j >= c0 && j < c0 + cols;
                if in_row_band != in_col_band {
                    assert_eq!(
                        dense[(i, j)],
                        0.0,
                        "projector has off-block leakage at ({i}, {j})"
                    );
                }
            }
        }
        r0 += rows;
        c0 += cols;
    }

    // 3. Transfer-function match at every sample frequency, with the full
    //    model evaluated through the sparse path (never densified).
    assert!(omegas.len() >= 10, "need at least 10 sample frequencies");
    let full_ev =
        SparseTransferEvaluator::new(&rm.full.g, &rm.full.c, rm.full.b.clone(), rm.full.l.clone())
            .expect("full evaluator");
    let mut worst = (0.0_f64, 0.0_f64);
    for &w in omegas {
        let s = Complex64::jomega(w);
        let hf = full_ev.eval(s).expect("full transfer sample");
        let hr = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).expect("reduced transfer sample");
        let rel = transfer_rel_err(&hf, &hr);
        if rel > worst.0 {
            worst = (rel, w);
        }
    }
    assert!(
        worst.0 <= tol,
        "worst relative error {:.3e} exceeds {tol:.1e} (at ω = {:.3e}; q = {q}, n = {n})",
        worst.0,
        worst.1
    );
}

#[test]
fn rc_ladder_500_states_5_blocks() {
    // 500 buses → 500 states; load taps every 10 buses keep the slowest
    // poles bounded away from zero, as on a real distribution line.
    let net = rc_ladder_loaded(500, 1.0, 1e-3, 5.0, 5);
    let opts = ReductionOpts {
        num_blocks: 4,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![5.0e1, 4.5e2, 4.0e3],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(100),
        ..ReductionOpts::default()
    };
    let rm = reduce_network(&net, &opts).expect("reduction");
    assert_eq!(rm.full_dim(), 500);
    let omegas = log_freqs(50.0, 4.0e3, 12);
    check_acceptance(&rm, 4, &omegas, 1e-6);
}

#[test]
fn rc_grid_500_states_5_blocks() {
    // 20 × 25 mesh → 500 states.
    let net = rc_grid(20, 25, 1.0, 1e-3, 2.0);
    let opts = ReductionOpts {
        num_blocks: 4,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![5.0e1, 4.5e2, 4.0e3],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(100),
        ..ReductionOpts::default()
    };
    let rm = reduce_network(&net, &opts).expect("reduction");
    assert_eq!(rm.full_dim(), 500);
    let omegas = log_freqs(50.0, 4.0e3, 12);
    check_acceptance(&rm, 4, &omegas, 1e-6);
}

#[test]
fn feeder_with_inductors_reduces_accurately() {
    // Radial feeder network with series inductance: 4 feeders × 120 buses
    // + substation = 481 buses, + 4 inductor currents = 485 states.
    let net = ieee_like_feeder(4, 120, 1.0, 1e-3, 1e-5, 2.0);
    let opts = ReductionOpts {
        num_blocks: 4,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![5.0e1, 4.5e2, 4.0e3],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(97),
        ..ReductionOpts::default()
    };
    let rm = reduce_network(&net, &opts).expect("reduction");
    assert!(rm.full_dim() >= 200);
    let omegas = log_freqs(50.0, 4.0e3, 12);
    check_acceptance(&rm, 4, &omegas, 1e-6);
}

#[test]
fn reduction_ratio_is_substantial() {
    let net = rc_ladder(250, 1.0, 1e-3, 2.0);
    let opts = ReductionOpts {
        num_blocks: 5,
        krylov: KrylovOpts {
            expansion_points: vec![5.0e1, 1.0e3],
            jomega_points: vec![],
            moments_per_point: 2,
            deflation_tol: 1e-10,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: None,
        ..ReductionOpts::default()
    };
    let rm = reduce_network(&net, &opts).expect("reduction");
    // Block-diagonal reduced G/C keep block sparsity: entries coupling
    // non-adjacent blocks of a chain stay (numerically) tiny.
    assert!(rm.reduced_dim() * 5 <= rm.full_dim());
    assert!(rm.projector.num_blocks() == 5);
}
