//! The adaptive engine's single factoring pass: each point of
//! `unique(seeds ∪ grid)` is factored once, and the recurrence's
//! start-block solve doubles as the full-model sample the greedy loop
//! certifies against.
//!
//! Pinned here: the pass's candidate sets and `H(jω)` samples are the
//! bits the separate paths produce (a one-point
//! [`global_krylov_basis_sparse`] and
//! [`SparseTransferEvaluator::eval_with`]) for `BDSM_THREADS` ∈ {1, 2, 5};
//! the factorisation budget is a **count** read from the
//! `lu_factorizations` metric, so a re-introduced duplicate fails here
//! and not in a benchmark; and the Krylov recurrence leaves no subnormal
//! entry behind on a long ladder.
//!
//! Every test sets `BDSM_THREADS` or reads a process-global counter, so
//! they serialize behind one lock.

use bdsm_circuit::Network;
use bdsm_core::engine::{AdaptiveShiftOpts, ReductionEngine, ShiftStrategy};
use bdsm_core::krylov::{global_krylov_basis_sparse, ExpansionPoint, KrylovOpts};
use bdsm_core::reduce::ReductionOpts;
use bdsm_core::synth::{ieee_like_feeder, rc_grid, rc_ladder_loaded};
use bdsm_core::transfer::{CMatrix, SparseTransferEvaluator};
use bdsm_linalg::Complex64;
use bdsm_obs::ObsLevel;
use bdsm_sparse::LuWorkspace;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under a worker cap and obs level, restoring both afterwards.
fn scoped<T>(threads: &str, level: ObsLevel, f: impl FnOnce() -> T) -> T {
    let prev_threads = std::env::var("BDSM_THREADS").ok();
    let prev_level = bdsm_obs::level();
    std::env::set_var("BDSM_THREADS", threads);
    bdsm_obs::set_level(level);
    let out = f();
    bdsm_obs::set_level(prev_level);
    match prev_threads {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
    out
}

fn opts(jomega_points: &[f64]) -> ReductionOpts {
    ReductionOpts {
        num_blocks: 4,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: jomega_points.to_vec(),
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(100),
        ..ReductionOpts::default()
    }
}

fn adaptive(seeds: &[f64], grid: Vec<f64>, max_shifts: usize) -> ReductionOpts {
    ReductionOpts {
        shift_strategy: ShiftStrategy::Adaptive(AdaptiveShiftOpts {
            candidate_omegas: grid,
            tol: 1e-6,
            max_shifts,
        }),
        ..opts(seeds)
    }
}

fn sample_bits(h: &CMatrix) -> Vec<(u64, u64)> {
    (0..h.nrows())
        .flat_map(|i| (0..h.ncols()).map(move |j| (i, j)))
        .map(|ij| (h[ij].re.to_bits(), h[ij].im.to_bits()))
        .collect()
}

fn column_bits(cols: &[Vec<f64>]) -> Vec<Vec<u64>> {
    cols.iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// One pass over a seed plus a grid, checked against the unfused paths
/// point by point and across worker counts.
fn check_pass_parity(net: &Network) {
    let _guard = ENV_LOCK.lock().unwrap();
    let omegas: Vec<f64> = std::iter::once(4.5e2)
        .chain(AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6))
        .collect();
    let points: Vec<ExpansionPoint> = omegas
        .iter()
        .map(|&w| ExpansionPoint::Jomega(w))
        .chain([ExpansionPoint::Real(1.0e2)])
        .collect();
    let opts = opts(&[4.5e2]);
    let engine = ReductionEngine::new(net, &opts).unwrap();
    let plan = engine.plan().unwrap();
    let full = &plan.full;
    let evaluator =
        SparseTransferEvaluator::new(&full.g, &full.c, full.b.clone(), full.l.clone()).unwrap();

    // (candidate bits, sample bits) per point, once per worker count.
    let runs: Vec<Vec<_>> = ["1", "2", "5"]
        .iter()
        .map(|threads| {
            let pass = scoped(threads, ObsLevel::Off, || {
                engine.point_candidates(&plan, &points)
            });
            assert_eq!(pass.len(), points.len());
            pass.into_iter()
                .map(|p| p.expect("point factors"))
                .map(|p| (column_bits(&p.vectors), p.sample.as_ref().map(sample_bits)))
                .collect()
        })
        .collect();
    assert!(runs[1] == runs[0], "pass differs between 1 and 2 workers");
    assert!(runs[2] == runs[0], "pass differs between 1 and 5 workers");
    let reference = &runs[0];

    let mut ws = LuWorkspace::new();
    for ((&pt, (vectors, sample)), k) in points.iter().zip(reference).zip(0..) {
        // The candidate set is what a one-point basis build gives (a
        // single set merges to itself), through the path that has no
        // output map and therefore takes no sample.
        let mut one = opts.krylov.clone();
        match pt {
            ExpansionPoint::Jomega(w) => one.jomega_points = vec![w],
            ExpansionPoint::Real(s0) => {
                one.jomega_points.clear();
                one.expansion_points = vec![s0];
            }
        }
        let basis = global_krylov_basis_sparse(&full.g, &full.c, &full.b, &one).unwrap();
        let cols: Vec<Vec<f64>> = (0..basis.ncols()).map(|j| basis.col(j)).collect();
        assert_eq!(vectors, &column_bits(&cols), "candidates of point {k}");
        // The sample is the evaluator's, bit for bit; real points have none.
        match pt {
            ExpansionPoint::Jomega(w) => {
                let h = evaluator.eval_with(Complex64::jomega(w), &mut ws).unwrap();
                assert_eq!(sample.as_ref(), Some(&sample_bits(&h)), "sample at ω = {w}");
            }
            ExpansionPoint::Real(_) => assert!(sample.is_none()),
        }
    }
}

#[test]
fn pass_matches_unfused_paths_on_ladder() {
    check_pass_parity(&rc_ladder_loaded(500, 1.0, 1e-3, 5.0, 5));
}

#[test]
fn pass_matches_unfused_paths_on_grid() {
    check_pass_parity(&rc_grid(20, 25, 1.0, 1e-3, 2.0));
}

#[test]
fn pass_matches_unfused_paths_on_feeder() {
    check_pass_parity(&ieee_like_feeder(4, 120, 1.0, 1e-3, 1e-5, 2.0));
}

/// Sparse factorisations one reduce performs, read from the metric the
/// benchmark's `sparse.lu_factor_count` reads.
fn factorisations(net: &Network, opts: &ReductionOpts, threads: &str) -> (u64, usize) {
    scoped(threads, ObsLevel::Timings, || {
        let counter = &bdsm_obs::metrics().lu_factorizations;
        let before = counter.get();
        let (_, report) = ReductionEngine::new(net, opts)
            .and_then(|e| e.run())
            .expect("reduction");
        (counter.get() - before, report.shifts.len())
    })
}

#[test]
fn adaptive_reduce_factors_each_distinct_point_once() {
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_grid(20, 25, 1.0, 1e-3, 2.0);
    let grid = || AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6);

    // The benchmark's mesh configuration: an off-grid seed plus six grid
    // frequencies is seven factorisations, however many the greedy step
    // promotes and however many workers run the pass.
    for max_shifts in [1, 2, 4, 7] {
        for threads in ["1", "2"] {
            let (count, shifts) =
                factorisations(&net, &adaptive(&[4.5e2], grid(), max_shifts), threads);
            assert_eq!(
                count, 7,
                "max_shifts {max_shifts}, {threads} workers, {shifts} shifts"
            );
            assert!(shifts <= max_shifts);
        }
    }
    // A tolerance nothing meets promotes until the budget is spent: the
    // promotions are look-ups, not factorisations.
    let mut strict = adaptive(&[4.5e2], grid(), 5);
    if let ShiftStrategy::Adaptive(a) = &mut strict.shift_strategy {
        a.tol = 1e-300;
    }
    assert_eq!(factorisations(&net, &strict, "2"), (7, 5));

    // Default-seeded (the mid-grid frequency) and explicitly seeded on the
    // grid: the seed is a grid point and shares its factorisation.
    assert_eq!(factorisations(&net, &adaptive(&[], grid(), 4), "2").0, 6);
    let on_grid = grid()[2];
    assert_eq!(
        factorisations(&net, &adaptive(&[on_grid], grid(), 4), "2").0,
        6
    );
    // A repeated grid frequency is one point.
    let mut repeated = grid();
    repeated.push(repeated[1]);
    repeated.push(repeated[4]);
    assert_eq!(
        factorisations(&net, &adaptive(&[4.5e2], repeated, 4), "2").0,
        7
    );
}

#[test]
fn fixed_reduce_factors_once_per_point() {
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_ladder_loaded(2000, 1.0, 1e-3, 5.0, 5);
    let ladder = opts(&[2.0e1, 5.0e1, 1.5e2, 4.5e2, 1.5e3, 4.0e3, 1.2e4, 4.0e4]);
    for threads in ["1", "2"] {
        assert_eq!(factorisations(&net, &ladder, threads), (8, 8));
    }
}

#[test]
fn long_ladder_candidates_hold_no_subnormals() {
    // The shifted solves decay geometrically along a 10⁴-state ladder and
    // used to leave a fifth of all candidate entries subnormal, which
    // stalled every kernel downstream of the recurrence.
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_ladder_loaded(10_000, 1.0, 1e-3, 5.0, 5);
    let omegas = [2.0e1, 5.0e1, 1.5e2, 4.5e2, 1.5e3, 4.0e3, 1.2e4, 4.0e4];
    let opts = ReductionOpts {
        num_blocks: 8,
        ..opts(&omegas)
    };
    let engine = ReductionEngine::new(&net, &opts).unwrap();
    let plan = engine.plan().unwrap();
    let points: Vec<_> = omegas.iter().map(|&w| ExpansionPoint::Jomega(w)).collect();
    let (mut entries, mut zeros, mut small_squares) = (0usize, 0usize, 0usize);
    for (point, w) in engine
        .point_candidates(&plan, &points)
        .into_iter()
        .zip(omegas)
    {
        for column in point.expect("point factors").vectors {
            for v in column {
                assert!(!v.is_subnormal(), "ω = {w}: subnormal entry {v:e}");
                entries += 1;
                zeros += usize::from(v == 0.0);
                small_squares += usize::from(v != 0.0 && !(v * v).is_normal());
            }
        }
    }
    // The decay is real: most of every column is exact zero.
    assert!(zeros * 2 > entries, "{zeros} zeros of {entries} entries");
    // The flush keeps |x| ≥ √MIN_POSITIVE·‖v‖∞ and the column is divided
    // by ‖v‖₂ ≥ ‖v‖∞ afterwards, so an entry can end up to that ratio
    // below √MIN_POSITIVE — a few per column at most, where there used
    // to be two thousand.
    assert!(
        small_squares * 10_000 < entries,
        "{small_squares} of {entries} entries square to a subnormal"
    );
}
