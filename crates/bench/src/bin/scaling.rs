//! Transient recorder: full model against ROM, backward-Euler step
//! response on a 100×100 RC mesh (10⁴ states) — the paper's "reuse the
//! ROM under any excitation, simulate fast" claim, which no `benchmark/`
//! workload times yet. Emitted as `BENCH_scaling.json`
//! (`{"bench", "threads", "transient": {…}}`) for the CI artifact trail.
//! A recorder, not a gate: regressions are judged by the `benchmark/`
//! harness and exact properties by the test suites.
//!
//! Usage: `cargo run --release -p bdsm-bench --bin scaling` (no arguments).

use bdsm_core::synth::rc_grid;
use bdsm_core::{par, ReducedModel};
use bdsm_obs::json::Object;
use bdsm_rom::Reducer;
use bdsm_sim::TransientSolver;
use std::time::Instant;

/// Transient scenario parameters (10⁴-state RC mesh).
const TRANSIENT_STEPS: usize = 400;
const TRANSIENT_H: f64 = 1e-4;

type BenchError = Box<dyn std::error::Error>;

fn main() -> Result<(), BenchError> {
    let threads = par::max_threads();
    println!("parallel engine: up to {threads} worker thread(s)");
    let record = Object::new()
        .field("bench", "scaling")
        .field("threads", threads)
        .field("transient", transient_scenario()?);
    std::fs::write("BENCH_scaling.json", record.finish())?;
    println!("wrote BENCH_scaling.json");
    Ok(())
}

/// Transient at scale: full vs reduced backward-Euler step response on a
/// 100×100 RC mesh (10⁴ states), with the worst output deviation of the
/// ROM relative to the full response.
fn transient_scenario() -> Result<Object, BenchError> {
    println!("--- transient: 100x100 RC mesh, {TRANSIENT_STEPS} steps of h = {TRANSIENT_H} ---");
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(8)
        .jomega_shifts(&[5.0e1, 4.5e2, 4.0e3])
        .moments(2)
        .deflation_tol(1e-12)
        .rank_tol(1e-12)
        .budget(2000)
        .sparse()
        .build()?;
    let rm = reducer.reduce(&net)?;
    let (t_full_us, y_full) = run_transient(TransientSolver::for_full(&rm, TRANSIENT_H), &rm);
    let (t_rom_us, y_rom) = run_transient(TransientSolver::for_reduced(&rm, TRANSIENT_H), &rm);
    // Worst per-step output deviation, relative to the full response's
    // largest magnitude (outputs start at 0, so pointwise relative error
    // would blow up on the first steps).
    let y_scale = y_full
        .iter()
        .flatten()
        .fold(0.0_f64, |m, &v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let max_rel_output_err = y_full
        .iter()
        .flatten()
        .zip(y_rom.iter().flatten())
        .fold(0.0_f64, |m, (&f, &r)| m.max((f - r).abs()))
        / y_scale;
    println!(
        "  full {:.1} ms vs reduced {:.1} ms ({:.1}x); worst rel output dev {:.2e}",
        t_full_us / 1e3,
        t_rom_us / 1e3,
        t_full_us / t_rom_us,
        max_rel_output_err
    );
    Ok(Object::new()
        .field("topology", "rc_grid")
        .field("n", rm.full_dim())
        .field("steps", TRANSIENT_STEPS)
        .field("h", TRANSIENT_H)
        .field("reduced_dim", rm.reduced_dim())
        .field("t_full_transient_us", t_full_us)
        .field("t_rom_transient_us", t_rom_us)
        .field("transient_speedup", t_full_us / t_rom_us)
        .field("max_rel_output_err", max_rel_output_err))
}

fn run_transient(
    solver: Result<TransientSolver, bdsm_linalg::LinalgError>,
    rm: &ReducedModel,
) -> (f64, Vec<Vec<f64>>) {
    let mut solver = solver.expect("transient solver");
    let u = vec![1.0; rm.full.b.ncols()];
    let t0 = Instant::now();
    let ys = solver
        .run_constant(&u, TRANSIENT_STEPS)
        .expect("transient run");
    (t0.elapsed().as_secs_f64() * 1e6, ys)
}
