//! Scaling benchmark: per-stage reduction cost, parallel-vs-serial engine
//! speedup, supernodal-vs-scalar kernel shootout, frequency-sweep fan-out,
//! a transient-at-scale scenario, adaptive-vs-fixed shift selection, and a
//! ROM **serve** scenario (artifact save/load + batched `RomServer`
//! queries) — emitted as `BENCH_scaling.json` for the CI artifact trail.
//! A recorder, not a gate: regressions are judged by the `benchmark/`
//! harness and exact properties by the test suites.
//!
//! Usage: `cargo run --release -p bdsm-bench --bin scaling [n ...]`
//! (default sizes: 500 2000 10000 50000).
//!
//! Per size `n`, on a loaded RC ladder with `n` states:
//!
//! - `t_sparse_factor_solve_us` — supernodal sparse complex factorization
//!   of `G + jωC` (symbolic + workspace reused via `ShiftedPencil`) plus
//!   one solve; `t_factor_scalar_us` is the same through the scalar oracle
//!   kernel, so the blocked-kernel gain is visible per size (the active
//!   `dense::gemm` register blocking is recorded as
//!   `kernel_fused_rank1`);
//! - `t_dense_factor_solve_us` — the dense `ZLu` equivalent, only run for
//!   `n ≤ 2000` (the dense wall is the point of the exercise);
//! - `t_reduce_us` / `t_reduce_serial_us` — the full BDSM reduction
//!   (driven through the v1 `Reducer`) with the multi-shift/SVD fan-out on
//!   all workers vs pinned to one (`BDSM_THREADS=1`), with the per-stage
//!   breakdown from the parallel run;
//! - `t_sweep_us` / `t_sweep_serial_us` — a full-model sparse `jω` sweep
//!   (`sweep_frequencies` samples) with and without the per-frequency
//!   fan-out;
//! - `t_rom_eval_us`, `mem_*_bytes` — ROM sample cost and factor-storage
//!   proxies, as before.
//!
//! When the size list includes 10,000, four scenario records are added:
//! `transient` (full vs reduced backward-Euler on a 100×100 mesh),
//! `adaptive` (greedy shift selection vs the fixed 8-point set),
//! `serve` (adaptive+exact ROM → artifact save/load → 64-frequency ×
//! all-port `RomServer` batch, cold and cache-warm), and `obs`
//! (`BDSM_OBS=spans` reduce on one worker — asserts the per-point Krylov
//! spans sum to the krylov stage time within 5 %, saves the Chrome trace
//! as `BENCH_trace_10k.json`, and checks the `RomServer` cache accounting
//! exactly, dumping global + server metrics as `BENCH_metrics.json`).
//! A standalone `cluster` record (`BENCH_cluster.json`) also runs at
//! 10,000: the same ROM behind a 2-shard band-sharded loopback cluster
//! vs one local `RomServer`, batched and unbatched, with the
//! distributed-vs-local `bitwise_equal` verdict.
//!
//! Every speedup field records the worker count the parallel leg actually
//! ran with (`par::worker_count`); on a single-worker host the parallel
//! and serial legs are the same experiment, so the speedup is emitted as
//! `null` rather than a fabricated 1.0x.

use bdsm_bench::time_with_warmup;
use bdsm_circuit::{mna, partition_network_with, PartitionStrategy};
use bdsm_cluster::{ClientConfig, ClusterClient, NodeConfig, ShardNode, ShardPlan};
use bdsm_core::engine::AdaptiveShiftOpts;
use bdsm_core::synth::{rc_grid, rc_ladder_loaded};
use bdsm_core::transfer::{eval_transfer, SparseTransferEvaluator, ZLu};
use bdsm_core::{par, ReducedModel};
use bdsm_linalg::{Complex64, KERNEL_SHAPE};
use bdsm_obs::json::Object;
use bdsm_obs::ObsLevel;
use bdsm_rom::{Reducer, RomArtifact, RomServer};
use bdsm_sim::TransientSolver;
use bdsm_sparse::{LuWorkspace, NumericKernel, ShiftedPencil};
use std::time::{Duration, Instant};

const OMEGA_MID: f64 = 4.5e2;
const DENSE_CEILING: usize = 2000;
/// Frequencies of the full-model sweep stage (log-spaced decades around
/// the expansion band).
const SWEEP_FREQS: [f64; 8] = [2.0e1, 6.0e1, 1.8e2, 5.4e2, 1.6e3, 4.9e3, 1.5e4, 4.4e4];
/// Transient scenario parameters (10⁴-state RC mesh).
const TRANSIENT_STEPS: usize = 400;
const TRANSIENT_H: f64 = 1e-4;
/// Frequencies per served batch in the serve scenario.
const SERVE_FREQS: usize = 64;

type BenchError = Box<dyn std::error::Error>;

/// Runs `f` with the fan-out pinned to one worker, restoring the previous
/// `BDSM_THREADS` afterwards — the serial baseline the parallel engine is
/// compared against.
fn with_serial_engine<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::env::var("BDSM_THREADS").ok();
    std::env::set_var("BDSM_THREADS", "1");
    let out = f();
    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
    out
}

/// The size-parameterized fixed-shift reducer of the per-size rows: eight
/// `jω` points spanning the band, so the fan-out has enough grist to fill
/// 4–8 workers.
fn reducer_for(n: usize) -> Result<Reducer, BenchError> {
    Ok(Reducer::builder()
        .blocks(8)
        .jomega_shifts(&[2.0e1, 5.0e1, 1.5e2, OMEGA_MID, 1.5e3, 4.0e3, 1.2e4, 4.0e4])
        .moments(2)
        .deflation_tol(1e-12)
        .rank_tol(1e-12)
        .budget((n / 5).max(8))
        .sparse()
        .build()?)
}

fn main() -> Result<(), BenchError> {
    let sizes: Vec<usize> = {
        let args: Result<Vec<usize>, _> = std::env::args()
            .skip(1)
            .map(|a| a.parse::<usize>())
            .collect();
        let args = args?;
        if args.is_empty() {
            vec![500, 2000, 10_000, 50_000]
        } else {
            args
        }
    };
    let threads = par::max_threads();
    println!("parallel engine: up to {threads} worker thread(s)");

    let mut rows = Vec::new();
    for &n in &sizes {
        println!("--- n = {n} ---");
        let net = rc_ladder_loaded(n, 1.0, 1e-3, 5.0, 5);
        let desc = mna::assemble(&net)?;
        let s = Complex64::jomega(OMEGA_MID);
        let b0: Vec<f64> = desc.b.col(0);

        // Shifted factor + solve through both numeric kernels (symbolic
        // analysis and scratch workspace amortized in both).
        let pencil = ShiftedPencil::new(&desc.g, &desc.c)?;
        let pencil_scalar = pencil.clone().with_numeric_kernel(NumericKernel::Scalar);
        let iters = if n <= DENSE_CEILING { 5 } else { 2 };
        let mut factor_nnz = 0;
        let mut ws = LuWorkspace::new();
        let t_sparse = time_with_warmup("supernodal", 1, iters, || {
            let lu = pencil.factor_complex_with(s, &mut ws).expect("factor");
            factor_nnz = lu.factor_nnz();
            std::hint::black_box(lu.solve_real(&b0).expect("solve"));
        });
        let t_sparse_us = t_sparse.per_iter().as_secs_f64() * 1e6;
        let t_scalar = time_with_warmup("scalar-kernel", 1, iters, || {
            let lu = pencil_scalar
                .factor_complex_with(s, &mut ws)
                .expect("factor");
            std::hint::black_box(lu.solve_real(&b0).expect("solve"));
        });
        let t_scalar_us = t_scalar.per_iter().as_secs_f64() * 1e6;
        println!(
            "  factor+solve: supernodal {:?}/iter, scalar {:?}/iter ({:.2}x)",
            t_sparse.per_iter(),
            t_scalar.per_iter(),
            t_scalar_us / t_sparse_us
        );

        // Dense oracle, below the densification ceiling only.
        let t_dense_us = (n <= DENSE_CEILING).then(|| {
            let dense = desc.to_dense();
            let t = time_with_warmup("dense", 1, 3, || {
                let lu = ZLu::factor_shifted(&dense.g, &dense.c, s).expect("dense factor");
                std::hint::black_box(lu.solve_real(&b0).expect("dense solve"));
            });
            println!("  dense factor+solve:  {:?}/iter", t.per_iter());
            t.per_iter().as_secs_f64() * 1e6
        });

        // Full pipeline, serial then parallel: same workload, the only
        // difference is the fan-out worker count. One untimed warmup run
        // first, so neither measured path pays first-touch page faults or
        // cold-allocator cost (the serial run would otherwise absorb all
        // of it and inflate the reported parallel speedup).
        let reducer = reducer_for(n)?;
        // What the parallel leg actually fans out over: the per-shift
        // Krylov sweeps are the widest stage, so its worker count is the
        // honest one to attach to the speedup.
        let reduce_workers = par::worker_count(reducer.opts().krylov.jomega_points.len());
        std::hint::black_box(reducer.reduce_traced(&net)?);
        let t_reduce_serial_us = with_serial_engine(|| {
            let t0 = Instant::now();
            std::hint::black_box(reducer.reduce_traced(&net).expect("serial reduction"));
            t0.elapsed().as_secs_f64() * 1e6
        });
        let t0 = Instant::now();
        let (rm, _, stages) = reducer.reduce_traced(&net)?;
        let t_reduce_us = t0.elapsed().as_secs_f64() * 1e6;
        if reduce_workers > 1 {
            println!(
                "  reduce {n} -> {} states: {:.1} ms parallel vs {:.1} ms serial ({:.2}x on {} workers)",
                rm.reduced_dim(),
                t_reduce_us / 1e3,
                t_reduce_serial_us / 1e3,
                t_reduce_serial_us / t_reduce_us,
                reduce_workers,
            );
        } else {
            println!(
                "  reduce {n} -> {} states: {:.1} ms (single worker; no parallel/serial contrast)",
                rm.reduced_dim(),
                t_reduce_us / 1e3,
            );
        }
        println!(
            "    stages: assemble {:.1} ms, partition {:.1} ms, krylov {:.1} ms \
             (point {:.1} ms + merge {:.1} ms), svd {:.1} ms, project {:.1} ms",
            stages.assemble_us / 1e3,
            stages.partition_us / 1e3,
            stages.krylov_us / 1e3,
            stages.krylov_point_us / 1e3,
            stages.krylov_merge_us / 1e3,
            stages.svd_us / 1e3,
            stages.project_us / 1e3
        );

        // Full-model frequency sweep, serial vs fanned out.
        let full_ev = SparseTransferEvaluator::new(
            &rm.full.g,
            &rm.full.c,
            rm.full.b.clone(),
            rm.full.l.clone(),
        )?;
        // Same warmup discipline as the reduce comparison above.
        std::hint::black_box(full_ev.eval_jomega_sweep(&SWEEP_FREQS)?);
        let t_sweep_serial_us = with_serial_engine(|| {
            let t0 = Instant::now();
            std::hint::black_box(
                full_ev
                    .eval_jomega_sweep(&SWEEP_FREQS)
                    .expect("serial sweep"),
            );
            t0.elapsed().as_secs_f64() * 1e6
        });
        let t0 = Instant::now();
        std::hint::black_box(full_ev.eval_jomega_sweep(&SWEEP_FREQS)?);
        let t_sweep_us = t0.elapsed().as_secs_f64() * 1e6;
        let sweep_workers = par::worker_count(SWEEP_FREQS.len());
        if sweep_workers > 1 {
            println!(
                "  full sweep ({} freqs): {:.1} ms parallel vs {:.1} ms serial",
                SWEEP_FREQS.len(),
                t_sweep_us / 1e3,
                t_sweep_serial_us / 1e3
            );
        } else {
            println!(
                "  full sweep ({} freqs): {:.1} ms (single worker)",
                SWEEP_FREQS.len(),
                t_sweep_us / 1e3,
            );
        }

        let t_rom = time_with_warmup("rom-eval", 1, 5, || {
            std::hint::black_box(eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).expect("rom eval"));
        });
        let t_rom_eval_us = t_rom.per_iter().as_secs_f64() * 1e6;
        if let Some(td) = t_dense_us {
            println!("  sparse speedup vs dense: {:.1}x", td / t_sparse_us);
        }

        // With one worker the "parallel" and "serial" legs ran the same
        // code path — a speedup there would be fiction, so emit null.
        let speedup =
            |workers: usize, serial: f64, parallel: f64| (workers > 1).then(|| serial / parallel);
        rows.push(
            Object::new()
                .field("n", n)
                .field("nnz", pencil.nnz())
                .field("factor_nnz", factor_nnz)
                .field("t_sparse_factor_solve_us", t_sparse_us)
                .field("t_factor_scalar_us", t_scalar_us)
                .field("t_dense_factor_solve_us", t_dense_us)
                .field("sparse_speedup", t_dense_us.map(|v| v / t_sparse_us))
                .field("t_reduce_us", t_reduce_us)
                .field("t_reduce_serial_us", t_reduce_serial_us)
                .field("reduce_workers", reduce_workers)
                .field(
                    "reduce_parallel_speedup",
                    speedup(reduce_workers, t_reduce_serial_us, t_reduce_us),
                )
                .field("stage_assemble_us", stages.assemble_us)
                .field("stage_partition_us", stages.partition_us)
                .field("stage_krylov_us", stages.krylov_us)
                .field("krylov_point_us", stages.krylov_point_us)
                .field("krylov_merge_us", stages.krylov_merge_us)
                .field("stage_svd_us", stages.svd_us)
                .field("stage_project_us", stages.project_us)
                .field("stage_certify_us", stages.certify_us)
                .field("t_sweep_us", t_sweep_us)
                .field("t_sweep_serial_us", t_sweep_serial_us)
                .field("sweep_workers", sweep_workers)
                .field(
                    "sweep_parallel_speedup",
                    speedup(sweep_workers, t_sweep_serial_us, t_sweep_us),
                )
                .field("sweep_frequencies", SWEEP_FREQS.len())
                .field("t_rom_eval_us", t_rom_eval_us)
                .field("reduced_dim", rm.reduced_dim())
                .field("mem_sparse_bytes", 16 * factor_nnz)
                .field(
                    "mem_dense_bytes",
                    16usize.saturating_mul(n).saturating_mul(n),
                ),
        );
    }

    let at_scale = sizes.contains(&10_000);
    let partition = at_scale.then(partition_scenario).transpose()?;
    let transient = at_scale.then(transient_scenario).transpose()?;
    let adaptive = at_scale.then(adaptive_scenario).transpose()?;
    let serve = at_scale.then(serve_scenario).transpose()?;
    // Standalone record (BENCH_cluster.json).
    at_scale.then(cluster_scenario).transpose()?;
    // Last: it flips the process-global obs level while it runs.
    let obs = at_scale.then(obs_scenario).transpose()?;

    let record = Object::new()
        .field("bench", "scaling")
        .field("topology", "rc_ladder_loaded")
        .field("omega", OMEGA_MID)
        .field("threads", threads)
        .field("kernel_fused_rank1", KERNEL_SHAPE.fused_rank1)
        .field("results", &rows)
        .field("partition", partition)
        .field("transient", transient)
        .field("serve", serve)
        .field("adaptive", adaptive)
        .field("obs", obs);
    std::fs::write("BENCH_scaling.json", record.finish())?;
    println!("wrote BENCH_scaling.json ({} sizes)", rows.len());
    Ok(())
}

/// Adaptive-vs-fixed shift selection at n = 10⁴: the greedy engine must
/// buy its automation cheaply, so the record tracks the shifts it chose,
/// the residual trajectory, and the wall-time against the 8-point fixed
/// configuration.
fn adaptive_scenario() -> Result<Object, BenchError> {
    const N: usize = 10_000;
    println!("--- adaptive: n = {N} ladder, greedy shifts vs fixed 8-point set ---");
    let net = rc_ladder_loaded(N, 1.0, 1e-3, 5.0, 5);
    let fixed = reducer_for(N)?;
    let adaptive = Reducer::builder()
        .blocks(8)
        .jomega_shifts(&[OMEGA_MID])
        .moments(2)
        .deflation_tol(1e-12)
        .rank_tol(1e-12)
        .budget((N / 5).max(8))
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: SWEEP_FREQS.to_vec(),
            tol: 1e-6,
            max_shifts: 8,
        })
        .build()?;

    // Warm both paths once, then measure — the adaptive path has its own
    // cold-start surfaces (candidate-sweep evaluator, per-round ROM
    // sweeps) that must not inflate the timed run. The adaptive warmup
    // doubles as the certify-stage measurement: run it traced at
    // `ObsLevel::Timings` so `StageTimings` carries `stage.certify`
    // wall-clock without perturbing the untraced timed runs below.
    std::hint::black_box(fixed.reduce_traced(&net)?);
    let prev_level = bdsm_obs::level();
    bdsm_obs::set_level(ObsLevel::Timings);
    let warm = adaptive.reduce_traced(&net);
    bdsm_obs::set_level(prev_level);
    let (_, rep_warm, stages_warm) = warm?;
    let t_certify_us = stages_warm.certify_us;
    let cert = &rep_warm.certificate;
    let t0 = Instant::now();
    let (rm_fixed, rep_fixed, _) = fixed.reduce_traced(&net)?;
    let t_fixed_us = t0.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let (rm, rep, _) = adaptive.reduce_traced(&net)?;
    let t_adaptive_us = t0.elapsed().as_secs_f64() * 1e6;

    let shifts: Vec<f64> = rep
        .shifts
        .iter()
        .map(|p| match *p {
            bdsm_core::ExpansionPoint::Real(s) => s,
            bdsm_core::ExpansionPoint::Jomega(w) => w,
        })
        .collect();
    let residual_trajectory: Vec<f64> = rep.rounds.iter().map(|r| r.worst_residual).collect();
    let worst_residual = residual_trajectory.last().copied().unwrap_or(f64::NAN);
    println!(
        "  adaptive {:.1} ms ({} rounds, {} shifts, residual {:.2e}) vs fixed {:.1} ms ({} shifts)",
        t_adaptive_us / 1e3,
        rep.rounds.len(),
        shifts.len(),
        worst_residual,
        t_fixed_us / 1e3,
        rep_fixed.shifts.len(),
    );
    println!(
        "  certify stage {:.1} ms -> {:?} ({} passivity samples, {} error bands)",
        t_certify_us / 1e3,
        cert.status,
        cert.passivity.sample_omegas.len(),
        cert.error_bands.len(),
    );
    Ok(Object::new()
        .field("topology", "rc_ladder_loaded")
        .field("n", N)
        .field("t_adaptive_reduce_us", t_adaptive_us)
        .field("t_fixed_reduce_us", t_fixed_us)
        .field("adaptive_overhead", t_adaptive_us / t_fixed_us)
        .field("rounds", rep.rounds.len())
        .field("certified", rep.certified)
        .field("worst_residual", worst_residual)
        .field("shifts_chosen", shifts)
        .field("residual_trajectory", residual_trajectory)
        .field("reduced_dim", rm.reduced_dim())
        .field("reduced_dim_fixed", rm_fixed.reduced_dim())
        .field("basis_cols", rep.basis_cols)
        .field("basis_cols_fixed", rep_fixed.basis_cols)
        .field("t_certify_us", t_certify_us)
        .field("cert_status", cert.status)
        .field("cert_samples", cert.passivity.sample_omegas.len())
        .field("cert_bands", cert.error_bands.len()))
}

/// Partitioner shootout at scale: BFS vs nested dissection on the
/// 100×100 RC mesh at k = 8 — separator sizes (interface buses), the
/// interface-state counts they induce, and what each costs in
/// exact-interface ROM dimension (one matched shift, one moment — the
/// cheapest reduce that still pays the full per-interface-state price).
/// The separator sizes are deterministic; `partition_invariants.rs` pins
/// them, plus the ≥ 25 % ND-vs-BFS bar.
fn partition_scenario() -> Result<Object, BenchError> {
    const K: usize = 8;
    println!("--- partition: 100x100 RC mesh, BFS vs nested dissection at k = {K} ---");
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let t0 = Instant::now();
    let bfs = partition_network_with(&net, K, PartitionStrategy::Bfs)?;
    let t_bfs_us = t0.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let nd = partition_network_with(&net, K, PartitionStrategy::NestedDissection)?;
    let t_nd_us = t0.elapsed().as_secs_f64() * 1e6;
    let separator_ratio = nd.interface.len() as f64 / bfs.interface.len() as f64;
    println!(
        "  separators: BFS {} buses ({:.1} ms), ND {} buses ({:.1} ms) — ratio {separator_ratio:.3}",
        bfs.interface.len(),
        t_bfs_us / 1e3,
        nd.interface.len(),
        t_nd_us / 1e3,
    );

    let exact_rom = |strategy: PartitionStrategy| -> Result<(usize, usize), BenchError> {
        let builder = match strategy {
            PartitionStrategy::Bfs => Reducer::builder(),
            PartitionStrategy::NestedDissection => Reducer::builder().nested_dissection(),
        };
        let rm = builder
            .blocks(K)
            .jomega_shifts(&[OMEGA_MID])
            .moments(1)
            .exact_interfaces()
            .sparse()
            .build()?
            .reduce(&net)?;
        Ok((rm.interface_states.len(), rm.reduced_dim()))
    };
    let (bfs_interface_states, bfs_exact_rom_dim) = exact_rom(PartitionStrategy::Bfs)?;
    let (nd_interface_states, nd_exact_rom_dim) = exact_rom(PartitionStrategy::NestedDissection)?;
    println!(
        "  exact-interface ROM: BFS {bfs_interface_states} interface states -> dim {bfs_exact_rom_dim}, \
         ND {nd_interface_states} -> dim {nd_exact_rom_dim}"
    );
    Ok(Object::new()
        .field("topology", "rc_grid")
        .field("n", net.num_buses())
        .field("blocks", K)
        .field("t_bfs_partition_us", t_bfs_us)
        .field("t_nd_partition_us", t_nd_us)
        .field("bfs_interface_buses", bfs.interface.len())
        .field("nd_interface_buses", nd.interface.len())
        .field("nd_over_bfs_separator", separator_ratio)
        .field("bfs_interface_states", bfs_interface_states)
        .field("nd_interface_states", nd_interface_states)
        .field("bfs_exact_rom_dim", bfs_exact_rom_dim)
        .field("nd_exact_rom_dim", nd_exact_rom_dim))
}

/// Transient at scale: full vs reduced backward-Euler step response on a
/// 100×100 RC mesh (10⁴ states) — the time-domain counterpart of the
/// frequency-domain rows, closing the bench suite's coverage gap.
fn transient_scenario() -> Result<Object, BenchError> {
    println!("--- transient: 100x100 RC mesh, {TRANSIENT_STEPS} steps of h = {TRANSIENT_H} ---");
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(8)
        .jomega_shifts(&[5.0e1, OMEGA_MID, 4.0e3])
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

/// The ROM serve lifecycle at scale: a 10⁴-state mesh reduced in the
/// headline mode (adaptive + exact interfaces), persisted as a versioned
/// artifact, loaded back, and queried through `RomServer` — a
/// `SERVE_FREQS`-frequency × all-port batch, cold (paying the per-shift
/// factorizations) and cache-warm (pure triangular solves).
fn serve_scenario() -> Result<Object, BenchError> {
    println!("--- serve: 100x100 RC mesh ROM artifact, {SERVE_FREQS}-frequency batch ---");
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(4)
        .jomega_shifts(&[OMEGA_MID])
        .moments(2)
        .budget(2000)
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
            tol: 1e-6,
            max_shifts: 4,
        })
        .exact_interfaces()
        .build()?;
    let t0 = Instant::now();
    let artifact = reducer.reduce_to_artifact(&net)?;
    let t_build_us = t0.elapsed().as_secs_f64() * 1e6;
    let artifact_bytes = artifact.to_bytes().len();

    // The n = 10⁴ certificate, dumped standalone for the CI artifact
    // trail: passivity/stability margins, per-band error bounds, and the
    // envelope the server will enforce.
    let cert = &artifact.provenance.certificate;
    std::fs::write("BENCH_certificate.json", format!("{}\n", cert.to_json()))?;
    println!(
        "  wrote BENCH_certificate.json (status {:?}, {} passivity samples, {} bands)",
        cert.status,
        cert.passivity.sample_omegas.len(),
        cert.error_bands.len(),
    );

    let path = std::env::temp_dir().join("bdsm_bench_serve.rom");
    let t0 = Instant::now();
    artifact.save(&path)?;
    let t_save_us = t0.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let loaded = RomArtifact::load(&path)?;
    let t_load_us = t0.elapsed().as_secs_f64() * 1e6;
    std::fs::remove_file(&path).ok();
    assert!(artifact.bitwise_eq(&loaded), "serve artifact drifted");

    let port_pairs = loaded.num_outputs() * loaded.num_inputs();
    let reduced_dim = loaded.reduced_dim();
    let n = loaded.full_dim();
    let mut server = RomServer::new();
    let id = server.load_artifact(loaded);
    let omegas: Vec<f64> = (0..SERVE_FREQS)
        .map(|i| 50.0 * (4.0e3_f64 / 50.0).powf(i as f64 / (SERVE_FREQS - 1) as f64))
        .collect();
    let t0 = Instant::now();
    std::hint::black_box(server.transfer_sweep(id, &omegas)?);
    let t_serve_batch_us = t0.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    std::hint::black_box(server.transfer_sweep(id, &omegas)?);
    let t_serve_warm_us = t0.elapsed().as_secs_f64() * 1e6;
    let queries = (SERVE_FREQS * port_pairs) as f64;
    let queries_per_sec = queries / (t_serve_batch_us / 1e6);
    let queries_per_sec_warm = queries / (t_serve_warm_us / 1e6);
    println!(
        "  artifact {artifact_bytes} B: build {:.1} ms, save {:.2} ms, load {:.2} ms",
        t_build_us / 1e3,
        t_save_us / 1e3,
        t_load_us / 1e3,
    );
    println!(
        "  batch of {SERVE_FREQS} freqs x {port_pairs} port pairs: cold {:.1} ms ({:.0} q/s), \
         warm {:.1} ms ({:.0} q/s)",
        t_serve_batch_us / 1e3,
        queries_per_sec,
        t_serve_warm_us / 1e3,
        queries_per_sec_warm,
    );
    Ok(Object::new()
        .field("topology", "rc_grid")
        .field("n", n)
        .field("reduced_dim", reduced_dim)
        .field("artifact_bytes", artifact_bytes)
        .field("t_artifact_build_us", t_build_us)
        .field("t_artifact_save_us", t_save_us)
        .field("t_artifact_load_us", t_load_us)
        .field("sweep_frequencies", SERVE_FREQS)
        .field("port_pairs", port_pairs)
        .field("t_serve_batch_us", t_serve_batch_us)
        .field("t_serve_warm_us", t_serve_warm_us)
        .field("queries_per_sec", queries_per_sec)
        .field("queries_per_sec_warm", queries_per_sec_warm))
}

/// Distributed serving at scale: the 10⁴ serve-configuration ROM behind
/// a 2-shard band-sharded loopback cluster versus one local `RomServer`,
/// both with capacity-16 LRU shift caches — 64 distinct shifts per sweep
/// keep every pass deterministically all-miss, so the local and cluster
/// legs do identical factorization work and the contrast is pure
/// distribution cost/gain. The engine fan-out is pinned to one worker,
/// leaving shard concurrency (one connection thread per shard) as the
/// only parallelism. Emits `BENCH_cluster.json` for the CI artifact
/// trail: the `bitwise_equal` verdict and the batched-over-local
/// throughput ratio (`null` on single-CPU hosts, where there is no
/// concurrency to buy the wire overhead back).
fn cluster_scenario() -> Result<(), BenchError> {
    const MODEL: u64 = 1;
    const SHARDS: u32 = 2;
    const QUERIES: usize = 4;
    const CACHE_CAP: usize = 16;
    println!("--- cluster: 100x100 mesh ROM behind {SHARDS} band shards vs one local server ---");
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let reducer = Reducer::builder()
        .blocks(4)
        .jomega_shifts(&[OMEGA_MID])
        .moments(2)
        .budget(2000)
        .adaptive(AdaptiveShiftOpts {
            candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
            tol: 1e-6,
            max_shifts: 4,
        })
        .exact_interfaces()
        .build()?;
    let artifact = reducer.reduce_to_artifact(&net)?;
    let (env_lo, env_hi) = artifact
        .provenance
        .certificate
        .frequency_envelope()
        .ok_or("cluster scenario needs a certified frequency envelope")?;
    let bytes = artifact.to_bytes();
    let reduced_dim = artifact.reduced_dim();
    let n = artifact.full_dim();

    let mut local = RomServer::with_cache_capacity(CACHE_CAP);
    let local_id = local.load_artifact(RomArtifact::from_bytes(&bytes)?);

    let plan = ShardPlan::by_bands(MODEL, SHARDS, env_lo, env_hi)?;
    let digest = plan.digest();
    let nodes: Vec<ShardNode> = (0..SHARDS)
        .map(|k| -> Result<ShardNode, BenchError> {
            let mut server = RomServer::with_cache_capacity(CACHE_CAP);
            let id = server.load_artifact(RomArtifact::from_bytes(&bytes)?);
            Ok(ShardNode::spawn(
                server,
                vec![(MODEL, id)],
                NodeConfig {
                    shard_id: k,
                    plan_digest: digest,
                    io_timeout: Duration::from_secs(120),
                },
                "127.0.0.1:0",
            )?)
        })
        .collect::<Result<_, _>>()?;
    let addrs: Vec<std::net::SocketAddr> = nodes.iter().map(ShardNode::addr).collect();
    let client = ClusterClient::connect(plan, &addrs, ClientConfig::default())?;

    let omegas: Vec<f64> = (0..SERVE_FREQS)
        .map(|i| 50.0 * (4.0e3_f64 / 50.0).powf(i as f64 / (SERVE_FREQS - 1) as f64))
        .collect();
    let batch: Vec<(u64, Vec<f64>)> = (0..QUERIES).map(|_| (MODEL, omegas.clone())).collect();

    let (t_local_us, t_unbatched_us, t_batched_us, bitwise_equal, router_overhead_us) =
        with_serial_engine(|| -> Result<(f64, f64, f64, bool, f64), BenchError> {
            // Reference pass: warms page faults and the pooled TCP
            // connections, and settles the bitwise verdict. The bounded
            // caches keep every later pass identically cold (all-miss),
            // so no further warmup discipline is needed.
            let local_ref: Vec<_> = (0..QUERIES)
                .map(|_| local.transfer_sweep(local_id, &omegas))
                .collect::<Result<_, _>>()?;
            let unbatched_ref: Vec<_> = (0..QUERIES)
                .map(|_| client.transfer_sweep(MODEL, &omegas))
                .collect::<Result<_, _>>()?;
            let batched_ref = client.sweep_batch(&batch)?;
            let bitwise_equal = (0..QUERIES)
                .all(|q| unbatched_ref[q] == local_ref[q] && batched_ref[q] == local_ref[q]);

            let best = |f: &mut dyn FnMut() -> Result<(), BenchError>| {
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    let t0 = Instant::now();
                    f()?;
                    best = best.min(t0.elapsed().as_secs_f64() * 1e6);
                }
                Ok::<f64, BenchError>(best)
            };
            let t_local_us = best(&mut || {
                for _ in 0..QUERIES {
                    std::hint::black_box(local.transfer_sweep(local_id, &omegas)?);
                }
                Ok(())
            })?;
            let t_unbatched_us = best(&mut || {
                for _ in 0..QUERIES {
                    std::hint::black_box(client.transfer_sweep(MODEL, &omegas)?);
                }
                Ok(())
            })?;
            let t_batched_us = best(&mut || {
                std::hint::black_box(client.sweep_batch(&batch)?);
                Ok(())
            })?;
            // Router + wire floor: the best ping round trip (frame codec,
            // routing, TCP loopback — no solve work at all).
            let mut ping_us = f64::INFINITY;
            for _ in 0..16 {
                let t0 = Instant::now();
                client.ping(0)?;
                ping_us = ping_us.min(t0.elapsed().as_secs_f64() * 1e6);
            }
            Ok((
                t_local_us,
                t_unbatched_us,
                t_batched_us,
                bitwise_equal,
                ping_us,
            ))
        })?;

    let cm = client.metrics();
    let local_evictions = local.metrics().cache.evictions;
    for result in client.shutdown_all() {
        result?;
    }

    let samples = (QUERIES * SERVE_FREQS) as f64;
    let qps_local = samples / (t_local_us / 1e6);
    let qps_unbatched = samples / (t_unbatched_us / 1e6);
    let qps_batched = samples / (t_batched_us / 1e6);
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Same convention as the parallel-speedup records: on one CPU the
    // shard threads time-slice a single core, so there is no
    // distributed/local contrast to report — the ratio is `null`.
    let batched_over_local = (host_cpus >= 2).then(|| qps_batched / qps_local);
    println!(
        "  {QUERIES} x {SERVE_FREQS}-freq sweeps: local {:.1} ms ({qps_local:.0} q/s), \
         cluster unbatched {:.1} ms ({qps_unbatched:.0} q/s), batched {:.1} ms ({qps_batched:.0} q/s)",
        t_local_us / 1e3,
        t_unbatched_us / 1e3,
        t_batched_us / 1e3,
    );
    println!(
        "  router ping floor {router_overhead_us:.1} µs; rpcs {}, coalesced {}, \
         local evictions {local_evictions}; bitwise_equal {bitwise_equal}",
        cm.rpcs, cm.coalesced_queries,
    );

    let record = Object::new()
        .field("bench", "cluster")
        .field("topology", "rc_grid")
        .field("n", n)
        .field("reduced_dim", reduced_dim)
        .field("placement", "by_band")
        .field("shards", SHARDS)
        .field("host_cpus", host_cpus)
        .field("queries", QUERIES)
        .field("sweep_frequencies", SERVE_FREQS)
        .field("cache_capacity", CACHE_CAP)
        .field("t_local_us", t_local_us)
        .field("t_cluster_unbatched_us", t_unbatched_us)
        .field("t_cluster_batched_us", t_batched_us)
        .field("qps_local", qps_local)
        .field("qps_unbatched", qps_unbatched)
        .field("qps_batched", qps_batched)
        .field("batched_over_local", batched_over_local)
        .field("batched_over_unbatched", qps_batched / qps_unbatched)
        .field("router_overhead_us", router_overhead_us)
        .field("rpcs", cm.rpcs)
        .field("coalesced_queries", cm.coalesced_queries)
        .field("retries", cm.retries)
        .field("worker_panics", cm.worker_panics)
        .field("local_evictions", local_evictions)
        .field("bitwise_equal", bitwise_equal);
    std::fs::write("BENCH_cluster.json", record.finish())?;
    println!("wrote BENCH_cluster.json ({SHARDS} shards, by-band placement)");
    Ok(())
}

/// Observability at scale: the n = 10⁴ reduce under `BDSM_OBS=spans`,
/// pinned to one worker so span self-times sum to stage wall-clock (with
/// `W` workers the per-point spans overlap and sum to ~`W×` the stage
/// time). Asserts the tentpole's accounting bars — the per-point Krylov
/// spans (`krylov.point` + `krylov.merge`) must sum to `stage_krylov_us`
/// within 5 %, and the `RomServer` cache counters must balance exactly —
/// then saves the Chrome trace (`BENCH_trace_10k.json`) and the global +
/// server metrics dump (`BENCH_metrics.json`) for the CI artifact trail.
fn obs_scenario() -> Result<Object, BenchError> {
    const N: usize = 10_000;
    println!("--- obs: n = {N} ladder reduce + serve under BDSM_OBS=spans, one worker ---");
    let prev_level = bdsm_obs::level();
    bdsm_obs::set_level(ObsLevel::Spans);
    bdsm_obs::metrics().reset();
    let row = with_serial_engine(|| obs_scenario_body(N));
    bdsm_obs::set_level(prev_level);
    row
}

fn obs_scenario_body(n: usize) -> Result<Object, BenchError> {
    let net = rc_ladder_loaded(n, 1.0, 1e-3, 5.0, 5);
    let reducer = reducer_for(n)?;
    let (rm, report, stages) = reducer.reduce_traced(&net)?;
    let trace = &report.trace;
    let per_point_us = trace.total_us("krylov.point") + trace.total_us("krylov.merge");
    let coverage = per_point_us / stages.krylov_us;
    trace.save_chrome("BENCH_trace_10k.json")?;
    println!(
        "  trace: {} spans -> BENCH_trace_10k.json; per-point krylov spans cover {:.1} % of stage_krylov_us",
        trace.len(),
        coverage * 100.0,
    );
    for (name, us) in trace.top_level_totals_us() {
        println!("    {name}: {:.1} ms", us / 1e3);
    }
    assert!(
        (0.95..=1.05).contains(&coverage),
        "krylov span accounting broke: per-point spans sum to {per_point_us:.1} µs \
         but stage_krylov_us is {:.1} µs (coverage {coverage:.3}, required within 5 %)",
        stages.krylov_us,
    );

    // Serve the freshly reduced ROM: one cold and one warm 64-frequency
    // batch, then hold the cache counters to their exact contract.
    let artifact = RomArtifact::from_model(&rm, Some(&report));
    let mut server = RomServer::new();
    let id = server.load_artifact(artifact);
    let omegas: Vec<f64> = (0..SERVE_FREQS)
        .map(|i| 50.0 * (4.0e3_f64 / 50.0).powf(i as f64 / (SERVE_FREQS - 1) as f64))
        .collect();
    std::hint::black_box(server.transfer_sweep(id, &omegas)?);
    std::hint::black_box(server.transfer_sweep(id, &omegas)?);
    let m = server.metrics();
    let cached = server.cached_shifts(id)?;
    assert_eq!(
        m.queries(),
        2 * SERVE_FREQS as u64,
        "every served sample must be classified hit-or-miss"
    );
    assert_eq!(
        m.cache.misses as usize, cached,
        "cache misses must equal distinct cached shifts"
    );
    assert_eq!(
        m.cache.misses as usize, SERVE_FREQS,
        "cold batch must miss exactly once per frequency"
    );
    assert_eq!(
        m.cache.inserts, m.cache.misses,
        "every miss must insert exactly once"
    );
    println!(
        "  serve: {} queries, hit rate {:.2}, latency p50 {:.1} µs / p95 {:.1} µs / p99 {:.1} µs",
        m.queries(),
        m.hit_rate(),
        m.latency_us.p50_us,
        m.latency_us.p95_us,
        m.latency_us.p99_us,
    );

    let global = bdsm_obs::metrics().snapshot();
    let record = Object::new().field("global", &global).field("server", &m);
    std::fs::write("BENCH_metrics.json", record.finish())?;
    println!("  wrote BENCH_metrics.json (global counters + server cache/latency)");

    let top_spans: Vec<Object> = trace
        .top_level_totals_us()
        .into_iter()
        .map(|(name, us)| Object::new().field("name", name).field("total_us", us))
        .collect();
    Ok(Object::new()
        .field("topology", "rc_ladder_loaded")
        .field("n", n)
        .field("level", "spans")
        .field("span_count", trace.len())
        .field("top_spans", top_spans)
        .field("stage_krylov_us", stages.krylov_us)
        .field("krylov_span_coverage", coverage)
        .field("cache_hits", m.cache.hits)
        .field("cache_misses", m.cache.misses)
        .field("cache_hit_rate", m.hit_rate())
        .field("latency_p50_us", m.latency_us.p50_us)
        .field("latency_p95_us", m.latency_us.p95_us)
        .field("latency_p99_us", m.latency_us.p99_us))
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
