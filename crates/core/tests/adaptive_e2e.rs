//! Scale acceptance for the staged engine's headline mode: adaptive
//! greedy shift selection plus exact interface preservation on a
//! 10,000-state grid, bitwise-deterministic across worker counts.
//!
//! This file holds a single test because it manipulates `BDSM_THREADS`;
//! keeping it alone in its binary avoids env races with sibling tests.

use bdsm_core::engine::{AdaptiveShiftOpts, ReductionEngine, ShiftStrategy};
use bdsm_core::krylov::KrylovOpts;
use bdsm_core::projector::InterfacePolicy;
use bdsm_core::reduce::ReductionOpts;
use bdsm_core::synth::rc_grid;
use bdsm_core::transfer::{eval_transfer, transfer_rel_err, SparseTransferEvaluator, ZLu};
use bdsm_linalg::Complex64;

fn model_bytes(rm: &bdsm_core::ReducedModel) -> Vec<f64> {
    let mut out = Vec::new();
    for m in [&rm.g, &rm.c, &rm.b, &rm.l] {
        out.extend_from_slice(m.as_slice());
    }
    out
}

#[test]
fn adaptive_exact_10k_grid_is_deterministic_and_accurate() {
    // 100 × 100 RC mesh → 10,000 states.
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let opts = ReductionOpts {
        num_blocks: 4,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![4.5e2], // coarse initial shift
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(2000),
        shift_strategy: ShiftStrategy::Adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
            tol: 1e-6,
            max_shifts: 4,
        }),
        interface_policy: InterfacePolicy::Exact,
        ..ReductionOpts::default()
    };

    // The greedy loop (residual-driven selection included) must produce
    // bitwise-identical models under 1, 2, and 5 workers.
    let prev = std::env::var("BDSM_THREADS").ok();
    let mut outputs = Vec::new();
    for threads in ["1", "2", "5"] {
        std::env::set_var("BDSM_THREADS", threads);
        let (rm, report) = ReductionEngine::new(&net, &opts)
            .and_then(|e| e.run())
            .expect("adaptive reduction");
        assert!(
            report.certified,
            "loop did not certify under {threads} workers"
        );
        outputs.push((threads, model_bytes(&rm), rm, report));
    }
    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
    let (_, reference_bytes, rm, report) = &outputs[0];
    for (threads, bytes, _, rep) in &outputs[1..] {
        assert_eq!(
            bytes, reference_bytes,
            "adaptive reduction differs between 1 and {threads} workers"
        );
        assert_eq!(rep.shifts, report.shifts, "shift selection diverged");
    }

    // Acceptance: ≤ n/5 states, certified ≤ 1e-6 on the candidate grid,
    // and independently ≤ 1e-6 at 12 log-spaced frequencies.
    assert_eq!(rm.full_dim(), 10_000);
    assert!(
        rm.reduced_dim() * 5 <= rm.full_dim(),
        "reduced dim {} not ≤ n/5",
        rm.reduced_dim()
    );
    assert!(!report.rounds.is_empty() && report.shifts.len() <= 4);
    let full_ev =
        SparseTransferEvaluator::new(&rm.full.g, &rm.full.c, rm.full.b.clone(), rm.full.l.clone())
            .expect("full evaluator");
    let mut worst = 0.0_f64;
    for &w in &AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 12) {
        let s = Complex64::jomega(w);
        let hf = full_ev.eval(s).expect("full sample");
        let hr = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).expect("reduced sample");
        worst = worst.max(transfer_rel_err(&hf, &hr));
    }
    assert!(worst <= 1e-6, "worst transfer error {worst:.3e} > 1e-6");

    // Machine-exact interface reproduction: every interface row of the
    // reduced basis is an exact unit vector, so the ROM carries the full
    // model's interface stamps verbatim — each reduced `G`/`C` entry
    // between two mapped coordinates is the stored full-model entry
    // (`+0.0` where nothing is stored), and each mapped row of `B_r` is
    // the full row of `B`, bit for bit.
    let map = &rm.interface_map;
    assert_eq!(map.len(), rm.interface_states.len());
    assert!(!map.is_empty());
    for &(r, t_r) in map {
        locate(rm, r, t_r);
        for &(c, t_c) in map {
            for (reduced, full, name) in [(&rm.g, &rm.full.g, "G"), (&rm.c, &rm.full.c, "C")] {
                assert_eq!(
                    reduced[(t_r, t_c)].to_bits(),
                    full.get(r, c).to_bits(),
                    "{name}_r[{t_r}, {t_c}] is not {name}[{r}, {c}]"
                );
            }
        }
        for j in 0..rm.b.ncols() {
            assert_eq!(
                rm.b[(t_r, j)].to_bits(),
                rm.full.b[(r, j)].to_bits(),
                "B_r[{t_r}, {j}] is not B[{r}, {j}]"
            );
        }
    }

    // And the boundary voltages agree with the full model at the coarse
    // (matched) shift.
    let s = Complex64::jomega(4.5e2);
    let full_lu = bdsm_sparse::ShiftedPencil::new(&rm.full.g, &rm.full.c)
        .unwrap()
        .factor_complex(s)
        .unwrap();
    let rom_lu = ZLu::factor_shifted(&rm.g, &rm.c, s).unwrap();
    let x_full = full_lu.solve_real(&rm.full.b.col(0)).unwrap();
    let x_rom = rom_lu.solve_real(&rm.b.col(0)).unwrap();
    let scale = x_full
        .iter()
        .map(|z| z.abs())
        .fold(0.0_f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut worst_boundary = 0.0_f64;
    for &(row, col) in map {
        worst_boundary = worst_boundary.max((x_rom[col] - x_full[row]).abs() / scale);
    }
    assert!(
        worst_boundary <= 1e-9,
        "boundary voltages off by {worst_boundary:.3e}"
    );
}

/// Asserts that the reduced column `col` lies in the block owning the
/// full state `row`.
fn locate(rm: &bdsm_core::ReducedModel, row: usize, col: usize) {
    let mut r0 = 0;
    let mut c0 = 0;
    for (&rows, &cols) in rm.block_sizes.iter().zip(&rm.block_dims) {
        if row < r0 + rows {
            assert!(col >= c0 && col < c0 + cols, "interface col outside block");
            return;
        }
        r0 += rows;
        c0 += cols;
    }
    panic!("row {row} beyond state dimension");
}
