//! Scale acceptance tests for the sparse backend.
//!
//! The point of `bdsm-sparse`: the pipeline that used to top out around
//! 500 states now reduces a ≥ 10,000-state synthetic grid — full-model
//! Krylov solves, congruence projection, and the reference transfer
//! evaluation all through sparse factorizations — within the ordinary test
//! budget, at the same ≤ 1e-6 transfer accuracy. A companion test pins the
//! pipeline against the dense Krylov reference at ~500 states to 1e-10.

use bdsm_circuit::Network;
use bdsm_core::engine::ReductionEngine;
use bdsm_core::krylov::{global_krylov_basis, KrylovOpts};
use bdsm_core::reduce::{reduce_network, ReductionOpts};
use bdsm_core::synth::{rc_grid, rc_ladder};
use bdsm_core::transfer::{eval_transfer, transfer_rel_err, SparseTransferEvaluator};
use bdsm_linalg::{Complex64, Matrix};

/// Log-spaced angular frequencies in `[lo, hi]`.
fn log_freqs(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..count)
        .map(|i| (llo + (lhi - llo) * i as f64 / (count - 1) as f64).exp())
        .collect()
}

#[test]
fn sparse_backend_reduces_10k_state_grid() {
    // 100 × 100 RC mesh → 10,000 states: two orders of magnitude past the
    // dense ceiling (a dense G alone would be 800 MB).
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let opts = ReductionOpts {
        num_blocks: 8,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![5.0e1, 4.5e2, 4.0e3],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(2000),
        ..ReductionOpts::default()
    };
    let rm = reduce_network(&net, &opts).expect("10k-state sparse reduction");
    assert_eq!(rm.full_dim(), 10_000);
    assert!(rm.block_dims.len() >= 8);
    assert!(
        rm.reduced_dim() * 5 <= rm.full_dim(),
        "reduced dim {} not ≤ n/5",
        rm.reduced_dim()
    );

    // Reference transfer through the sparse full-model path at 12
    // log-spaced frequencies spanning the expansion band.
    let full_ev =
        SparseTransferEvaluator::new(&rm.full.g, &rm.full.c, rm.full.b.clone(), rm.full.l.clone())
            .expect("sparse full evaluator");
    let mut worst = (0.0_f64, 0.0_f64);
    for &w in &log_freqs(50.0, 4.0e3, 12) {
        let s = Complex64::jomega(w);
        let hf = full_ev.eval(s).expect("full sample");
        let hr = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).expect("reduced sample");
        let rel = transfer_rel_err(&hf, &hr);
        if rel > worst.0 {
            worst = (rel, w);
        }
    }
    assert!(
        worst.0 <= 1e-6,
        "worst relative error {:.3e} exceeds 1e-6 at ω = {:.3e} (q = {})",
        worst.0,
        worst.1,
        rm.reduced_dim()
    );
}

/// Two agreements, each pinned at ≤ 1e-10 on every listed frequency:
/// 1. the sparse full-model evaluator vs the dense evaluator;
/// 2. the pipeline's ROM vs the same ROM recomposed over the dense Krylov
///    reference (`global_krylov_basis` on the densified plan model, then
///    the engine's projector and dense congruence products).
fn assert_pipeline_matches_dense_reference(
    net: &Network,
    opts: &ReductionOpts,
    full_dim: usize,
    freqs: &[f64],
) {
    let rm = reduce_network(net, opts).expect("sparse reduction");
    assert_eq!(rm.full_dim(), full_dim);
    let engine = ReductionEngine::new(net, opts).expect("engine");
    let plan = engine.plan().expect("plan");
    let full = plan.full.to_dense();
    let basis = global_krylov_basis(&full.g, &full.c, &full.b, &opts.krylov).expect("dense basis");
    let v = engine.projector(&plan, &basis).expect("projector");
    let vd = v.to_dense();
    let vt = vd.transpose();
    let congruence = |a: &Matrix| vt.matmul(a).and_then(|m| m.matmul(&vd));
    let (g, c) = (
        congruence(&full.g).expect("VᵀGV"),
        congruence(&full.c).expect("VᵀCV"),
    );
    let (b, l) = (
        v.project_input(&full.b).expect("VᵀB"),
        v.project_output(&full.l).expect("LV"),
    );
    assert_eq!(rm.reduced_dim(), g.nrows());

    let sparse_ev =
        SparseTransferEvaluator::new(&rm.full.g, &rm.full.c, rm.full.b.clone(), rm.full.l.clone())
            .expect("sparse evaluator");
    for &w in freqs {
        let s = Complex64::jomega(w);
        let hs = sparse_ev.eval(s).expect("sparse sample");
        let hd = eval_transfer(&full.g, &full.c, &full.b, &full.l, s).expect("dense sample");
        let rel = transfer_rel_err(&hd, &hs);
        assert!(rel <= 1e-10, "full-model backends disagree at ω={w}: {rel}");

        let hrs = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).expect("pipeline ROM sample");
        let hrd = eval_transfer(&g, &c, &b, &l, s).expect("dense-reference ROM sample");
        let rel_rom = transfer_rel_err(&hrd, &hrs);
        assert!(
            rel_rom <= 1e-10,
            "pipeline and dense reference disagree at ω={w}: {rel_rom}"
        );
    }
}

#[test]
fn sparse_and_dense_backends_agree_at_500_states() {
    // ~500-state grid, small enough to densify, at three jω shifts.
    let grid_opts = ReductionOpts {
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
    let grid = rc_grid(20, 25, 1.0, 1e-3, 2.0);
    assert_pipeline_matches_dense_reference(&grid, &grid_opts, 500, &log_freqs(50.0, 4.0e3, 12));

    // A 30-bus ladder at one real shift, unbudgeted.
    let ladder_opts = ReductionOpts {
        num_blocks: 3,
        krylov: KrylovOpts {
            expansion_points: vec![1.0e3],
            moments_per_point: 3,
            ..KrylovOpts::default()
        },
        ..ReductionOpts::default()
    };
    let ladder = rc_ladder(30, 1.0, 1e-3, 2.0);
    assert_pipeline_matches_dense_reference(&ladder, &ladder_opts, 30, &[1.0e2, 5.0e2, 2.0e3]);
}
