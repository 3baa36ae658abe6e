//! Acceptance tests for the staged reduction engine: the fixed path must
//! reproduce the legacy pipeline composition bitwise, the adaptive greedy
//! shift selection must certify ≤ 1e-6 on the e2e network families with
//! no more Krylov vectors than the fixed-shift baseline, and the exact
//! interface policy must reproduce boundary voltages to machine accuracy.

use bdsm_circuit::{grouped_state_order, mna, partition_network};
use bdsm_core::engine::{AdaptiveShiftOpts, ReductionEngine, ShiftStrategy};
use bdsm_core::krylov::{global_krylov_basis_sparse, KrylovOpts};
use bdsm_core::projector::{BlockDiagProjector, InterfacePolicy};
use bdsm_core::reduce::{reduce_network, ReductionOpts};
use bdsm_core::synth::{ieee_like_feeder, rc_grid, rc_ladder_loaded};
use bdsm_core::transfer::{eval_transfer, transfer_rel_err, SparseTransferEvaluator};
use bdsm_linalg::Complex64;
use bdsm_sparse::ShiftedPencil;

/// The fixed-shift e2e configuration shared by the acceptance tests.
fn fixed_opts(num_blocks: usize, max_dim: usize) -> ReductionOpts {
    ReductionOpts {
        num_blocks,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![5.0e1, 4.5e2, 4.0e3],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(max_dim),
        ..ReductionOpts::default()
    }
}

/// Adaptive variant: one coarse mid-band shift, candidates spanning the
/// same band, and a budget equal to the fixed baseline's shift count.
fn adaptive_opts(num_blocks: usize, max_dim: usize) -> ReductionOpts {
    let mut opts = fixed_opts(num_blocks, max_dim);
    opts.krylov.jomega_points = vec![4.5e2];
    opts.shift_strategy = ShiftStrategy::Adaptive(AdaptiveShiftOpts {
        candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 12),
        tol: 1e-6,
        max_shifts: 3,
    });
    opts
}

#[test]
fn fixed_engine_reproduces_legacy_composition_bitwise() {
    // ReductionOpts::default() semantics (Fixed + Folded) must equal the
    // hand-composed legacy pipeline byte for byte: same permuted model,
    // same Krylov basis, same projector, same congruence products.
    let net = rc_grid(12, 15, 1.0, 1e-3, 2.0);
    let opts = fixed_opts(4, 60);
    let rm = reduce_network(&net, &opts).expect("engine reduction");
    assert_eq!(opts.shift_strategy, ShiftStrategy::Fixed);
    assert_eq!(opts.interface_policy, InterfacePolicy::Folded);

    let desc = mna::assemble(&net).unwrap();
    let part = partition_network(&net, 4).unwrap();
    let (order, sizes) = grouped_state_order(&net, &desc, &part);
    let full = desc.permuted(&order);
    let (g, c, b, l) = (full.g, full.c, full.b, full.l);
    let global = global_krylov_basis_sparse(&g, &c, &b, &opts.krylov).unwrap();
    let proj =
        BlockDiagProjector::from_global_basis(&global, &sizes, 1e-12, Some(60 / sizes.len()))
            .unwrap();
    assert_eq!(
        rm.g.as_slice(),
        proj.project_square_sparse(&g).unwrap().as_slice()
    );
    assert_eq!(
        rm.c.as_slice(),
        proj.project_square_sparse(&c).unwrap().as_slice()
    );
    assert_eq!(rm.b.as_slice(), proj.project_input(&b).unwrap().as_slice());
    assert_eq!(rm.l.as_slice(), proj.project_output(&l).unwrap().as_slice());
    // Folded policy exports the boundary set but maps nothing exactly.
    assert!(!rm.interface_states.is_empty());
    assert!(rm.interface_map().is_empty());
}

/// Runs the adaptive-vs-fixed comparison on one network and asserts the
/// satellite contract: certified ≤ 1e-6 with no more Krylov vectors.
fn check_adaptive_converges(net: &bdsm_circuit::Network, num_blocks: usize, max_dim: usize) {
    let (_, fixed_report) = ReductionEngine::new(net, &fixed_opts(num_blocks, max_dim))
        .and_then(|e| e.run())
        .expect("fixed reduction");
    let (rm, report) = ReductionEngine::new(net, &adaptive_opts(num_blocks, max_dim))
        .and_then(|e| e.run())
        .expect("adaptive reduction");
    assert!(
        report.certified,
        "adaptive loop failed to certify 1e-6: rounds {:?}",
        report
            .rounds
            .iter()
            .map(|r| r.worst_residual)
            .collect::<Vec<_>>()
    );
    assert!(report.basis_cols <= fixed_report.basis_cols);
    assert!(!report.rounds.is_empty());
    assert!(report.shifts.len() <= 3);
    // Independent verification: the certified residual holds against a
    // fresh full-model evaluation on the candidate grid.
    let full_ev =
        SparseTransferEvaluator::new(&rm.full.g, &rm.full.c, rm.full.b.clone(), rm.full.l.clone())
            .unwrap();
    let mut worst = 0.0_f64;
    for &w in &AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 12) {
        let s = Complex64::jomega(w);
        let hf = full_ev.eval(s).unwrap();
        let hr = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).unwrap();
        worst = worst.max(transfer_rel_err(&hf, &hr));
    }
    assert!(
        worst <= 1e-6,
        "independent residual check failed: {worst:.3e}"
    );
}

#[test]
fn adaptive_converges_on_ladder() {
    let net = rc_ladder_loaded(500, 1.0, 1e-3, 5.0, 5);
    check_adaptive_converges(&net, 4, 100);
}

#[test]
fn adaptive_converges_on_grid() {
    let net = rc_grid(20, 25, 1.0, 1e-3, 2.0);
    check_adaptive_converges(&net, 4, 100);
}

#[test]
fn adaptive_converges_on_feeder() {
    let net = ieee_like_feeder(4, 120, 1.0, 1e-3, 1e-5, 2.0);
    check_adaptive_converges(&net, 4, 97);
}

#[test]
fn exact_interface_rows_and_boundary_voltages() {
    let net = rc_grid(20, 25, 1.0, 1e-3, 2.0);
    let mut opts = fixed_opts(4, 200);
    // No budget: boundary exactness needs the full Krylov span alongside
    // the mandatory interface columns (a tight cap starves the moment
    // directions and is tested separately).
    opts.max_reduced_dim = None;
    opts.interface_policy = InterfacePolicy::Exact;
    let rm = reduce_network(&net, &opts).expect("exact-interface reduction");
    let map = rm.interface_map().to_vec();
    assert_eq!(map.len(), rm.interface_states.len());
    let mut rows: Vec<usize> = map.iter().map(|&(r, _)| r).collect();
    rows.sort_unstable();
    assert_eq!(rows, rm.interface_states);

    // 1. Interface rows of the reduced basis are exact unit vectors.
    let v = rm.projector.to_dense();
    for &(row, col) in &map {
        for j in 0..v.ncols() {
            let expect = if j == col { 1.0 } else { 0.0 };
            assert_eq!(v[(row, j)], expect, "basis row {row} is not e_{col}");
        }
    }

    // 2. ROM boundary voltages match the full model to ≤ 1e-10 at a
    //    matched frequency: x(s₀) lies in span(V), so the Galerkin
    //    reduction reproduces the full state — and the interface rows of
    //    V·x_r are the ROM coordinates themselves.
    let s = Complex64::jomega(4.5e2);
    let pencil = ShiftedPencil::new(&rm.full.g, &rm.full.c).unwrap();
    let full_lu = pencil.factor_complex(s).unwrap();
    let rom_lu = bdsm_core::transfer::ZLu::factor_shifted(&rm.g, &rm.c, s).unwrap();
    for input in 0..rm.full.b.ncols() {
        let x_full = full_lu.solve_real(&rm.full.b.col(input)).unwrap();
        let x_rom = rom_lu.solve_real(&rm.b.col(input)).unwrap();
        let scale = x_full
            .iter()
            .map(|z| z.abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for &(row, col) in &map {
            // Reconstruction at an interface row IS the ROM coordinate:
            // the row of V is a unit vector.
            let recon = x_rom[col];
            let err = (recon - x_full[row]).abs() / scale;
            assert!(
                err <= 1e-10,
                "boundary voltage at state {row} off by {err:.3e} (input {input})"
            );
        }
    }
}

#[test]
fn engine_stages_compose_to_run() {
    // Driving the stages by hand must give the same model as run().
    let net = rc_ladder_loaded(120, 1.0, 1e-3, 5.0, 5);
    let mut opts = fixed_opts(3, 48);
    opts.interface_policy = InterfacePolicy::Exact;
    let engine = ReductionEngine::new(&net, &opts).unwrap();
    let plan = engine.plan().unwrap();
    assert_eq!(plan.block_sizes.iter().sum::<usize>(), 120);
    assert!(!plan.interface_states.is_empty());
    let points = bdsm_core::krylov::collect_points(&opts.krylov);
    let global = engine.basis(&plan, &points).unwrap();
    let projector = engine.projector(&plan, &global).unwrap();
    let rom = engine.congruence(&plan, &projector).unwrap();
    let cert = engine.certify(&plan, &rom, &[5.0e1, 4.5e2, 4.0e3]).unwrap();
    assert_eq!(cert.residuals.len(), 3);
    assert!(cert.worst <= 1e-6, "staged ROM residual {:.3e}", cert.worst);
    assert!(cert.worst_omega > 0.0);

    let (rm, report) = engine.run().unwrap();
    assert_eq!(rm.g.as_slice(), rom.g.as_slice());
    assert_eq!(rm.c.as_slice(), rom.c.as_slice());
    assert_eq!(report.basis_cols, global.ncols());
    assert!(!report.certified); // fixed path never certifies
}

#[test]
fn adaptive_options_are_validated() {
    let net = rc_ladder_loaded(40, 1.0, 1e-3, 5.0, 5);
    let mut opts = ReductionOpts {
        shift_strategy: ShiftStrategy::Adaptive(AdaptiveShiftOpts {
            candidate_omegas: vec![],
            tol: 1e-6,
            max_shifts: 4,
        }),
        ..ReductionOpts::default()
    };
    assert!(reduce_network(&net, &opts).is_err());
    opts.shift_strategy = ShiftStrategy::Adaptive(AdaptiveShiftOpts {
        candidate_omegas: vec![1.0, 10.0],
        tol: 0.0,
        max_shifts: 4,
    });
    assert!(reduce_network(&net, &opts).is_err());
    opts.shift_strategy = ShiftStrategy::Adaptive(AdaptiveShiftOpts {
        candidate_omegas: vec![1.0, 10.0],
        tol: 1e-6,
        max_shifts: 0,
    });
    assert!(reduce_network(&net, &opts).is_err());
}

#[test]
fn adaptive_with_empty_initial_points_seeds_from_candidates() {
    // No KrylovOpts points at all: the engine seeds the coarse set from
    // the candidate grid's geometric middle and still reduces.
    let net = rc_ladder_loaded(200, 1.0, 1e-3, 5.0, 5);
    let mut opts = fixed_opts(4, 64);
    opts.krylov.jomega_points.clear();
    opts.shift_strategy = ShiftStrategy::Adaptive(AdaptiveShiftOpts {
        candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 10),
        tol: 1e-6,
        max_shifts: 3,
    });
    let (rm, report) = ReductionEngine::new(&net, &opts)
        .and_then(|e| e.run())
        .expect("seeded adaptive");
    assert!(report.certified, "rounds: {:?}", report.rounds.len());
    assert!(rm.reduced_dim() <= 64);
    assert!(rm.reduced_dim() < rm.full_dim());
}
