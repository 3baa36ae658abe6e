//! The parallel reduction engine's contract: fan-out changes wall-clock,
//! never bytes. Reduced models and frequency sweeps must be
//! **bitwise-identical** for any worker count, because every work item
//! (expansion point, block SVD, frequency sample) is a pure function of
//! its inputs and results are merged in item order.

use bdsm_circuit::PartitionStrategy;
use bdsm_core::engine::ReductionEngine;
use bdsm_core::krylov::KrylovOpts;
use bdsm_core::reduce::{reduce_network, ReducedModel, ReductionOpts, StageTimings};
use bdsm_core::synth::{rc_grid, rc_ladder_loaded};
use bdsm_core::transfer::SparseTransferEvaluator;
use bdsm_linalg::Complex64;
use std::sync::Mutex;

/// One test mutates `BDSM_THREADS`, which the fan-out workers of every
/// other test read via `getenv`; concurrent `setenv`/`getenv` is a data
/// race, so all tests in this binary serialize behind this lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn engine_opts() -> ReductionOpts {
    ReductionOpts {
        num_blocks: 6,
        krylov: KrylovOpts {
            expansion_points: vec![1.0e2],
            jomega_points: vec![5.0e1, 4.5e2, 4.0e3],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(48),
        ..ReductionOpts::default()
    }
}

/// One run plus the stage view of its report.
fn reduce_timed(net: &bdsm_circuit::Network, opts: &ReductionOpts) -> (ReducedModel, StageTimings) {
    let (rm, report) = ReductionEngine::new(net, opts).unwrap().run().unwrap();
    let stages = StageTimings::from_report(&report);
    (rm, stages)
}

fn model_bytes(rm: &ReducedModel) -> Vec<f64> {
    let mut out = Vec::new();
    for m in [&rm.g, &rm.c, &rm.b, &rm.l] {
        out.extend_from_slice(m.as_slice());
    }
    out
}

/// Runs the same reduction under worker counts 1, 2, and 5 (forced via
/// `BDSM_THREADS`, which deliberately oversubscribes small machines) and
/// requires identical bytes. Restores the environment afterwards.
#[test]
fn reduced_model_is_bitwise_invariant_under_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_ladder_loaded(400, 1.0, 1e-3, 5.0, 5);
    let opts = engine_opts();
    let prev = std::env::var("BDSM_THREADS").ok();
    let mut outputs = Vec::new();
    for threads in ["1", "2", "5"] {
        std::env::set_var("BDSM_THREADS", threads);
        let (rm, stages) = reduce_timed(&net, &opts);
        assert_eq!(stages.threads, threads.parse::<usize>().unwrap());
        assert!(stages.krylov_us > 0.0 && stages.total_us() > 0.0);
        outputs.push((threads, model_bytes(&rm)));
    }
    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
    let (_, ref reference) = outputs[0];
    for (threads, bytes) in &outputs[1..] {
        assert_eq!(
            bytes, reference,
            "reduced model differs between 1 and {threads} workers"
        );
    }
}

/// The tentpole bar at scale: a full 10⁴-state reduce — pipelined shift
/// factorizations feeding the panel-blocked merge tree — must stay
/// bitwise-identical across worker counts. The merge tree's shape is a
/// function of the expansion-point count alone and every produce/consume
/// stage is a pure function of its point, so `BDSM_THREADS` ∈ {1, 2, 5}
/// may only change wall-clock. Options stay lean (one moment, three
/// points) to keep the debug-build cost of three 10⁴ reductions sane.
#[test]
fn full_reduce_at_1e4_is_bitwise_invariant_under_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_grid(100, 100, 1.0, 1e-3, 2.0);
    let opts = ReductionOpts {
        num_blocks: 8,
        krylov: KrylovOpts {
            expansion_points: vec![1.0e2],
            jomega_points: vec![4.5e2, 4.0e3],
            moments_per_point: 1,
            deflation_tol: 1e-12,
            ortho: Default::default(),
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(40),
        ..ReductionOpts::default()
    };
    let prev = std::env::var("BDSM_THREADS").ok();
    let mut outputs = Vec::new();
    for threads in ["1", "2", "5"] {
        std::env::set_var("BDSM_THREADS", threads);
        let (rm, stages) = reduce_timed(&net, &opts);
        // The timed path must also see the per-point/merge split the
        // scaling bench records.
        assert!(
            stages.krylov_point_us > 0.0 && stages.krylov_merge_us > 0.0,
            "krylov point/merge spans missing from the timed trace"
        );
        outputs.push((threads, model_bytes(&rm)));
    }
    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
    let (_, ref reference) = outputs[0];
    for (threads, bytes) in &outputs[1..] {
        assert_eq!(
            bytes, reference,
            "10^4-state reduced model differs between 1 and {threads} workers"
        );
    }
}

/// The observability layer's zero-interference contract: recording spans
/// and metrics must never change a numerical result. The same reduction
/// runs under every `ObsLevel` × worker-count combination, and all six
/// reduced models must be byte-identical.
#[test]
fn reduced_model_is_bitwise_invariant_under_obs_level() {
    use bdsm_obs::ObsLevel;
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_ladder_loaded(400, 1.0, 1e-3, 5.0, 5);
    let opts = engine_opts();
    let prev = std::env::var("BDSM_THREADS").ok();
    let prev_level = bdsm_obs::level();
    let mut outputs = Vec::new();
    for level in [ObsLevel::Off, ObsLevel::Timings, ObsLevel::Spans] {
        bdsm_obs::set_level(level);
        for threads in ["1", "5"] {
            std::env::set_var("BDSM_THREADS", threads);
            let rm = reduce_network(&net, &opts).unwrap();
            outputs.push((level, threads, model_bytes(&rm)));
        }
    }
    bdsm_obs::set_level(prev_level);
    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
    let (_, _, ref reference) = outputs[0];
    for (level, threads, bytes) in &outputs[1..] {
        assert_eq!(
            bytes, reference,
            "reduced model differs at obs level {level:?} with {threads} workers"
        );
    }
}

/// Same contract for the nested-dissection partitioner: the strategy runs
/// before the fan-out, so worker count must not leak into the separator
/// choice or anything downstream of it — reduced models stay
/// bitwise-identical under `BDSM_THREADS` ∈ {1, 2, 5}.
#[test]
fn nested_dissection_reduction_is_bitwise_invariant_under_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_grid(25, 24, 1.0, 1e-3, 2.0);
    let opts = ReductionOpts {
        partition_strategy: PartitionStrategy::NestedDissection,
        ..engine_opts()
    };
    let prev = std::env::var("BDSM_THREADS").ok();
    let mut outputs = Vec::new();
    for threads in ["1", "2", "5"] {
        std::env::set_var("BDSM_THREADS", threads);
        let rm = reduce_network(&net, &opts).unwrap();
        outputs.push((threads, model_bytes(&rm)));
    }
    match prev {
        Some(v) => std::env::set_var("BDSM_THREADS", v),
        None => std::env::remove_var("BDSM_THREADS"),
    }
    let (_, ref reference) = outputs[0];
    for (threads, bytes) in &outputs[1..] {
        assert_eq!(
            bytes, reference,
            "ND-partitioned model differs between 1 and {threads} workers"
        );
    }
}

/// The parallel frequency sweep must reproduce the one-at-a-time
/// evaluations exactly, sample for sample.
#[test]
fn parallel_sweep_matches_serial_evals_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_grid(12, 14, 1.0, 1e-3, 2.0);
    let rm = reduce_network(&net, &engine_opts()).unwrap();
    let ev =
        SparseTransferEvaluator::new(&rm.full.g, &rm.full.c, rm.full.b.clone(), rm.full.l.clone())
            .unwrap();
    let omegas: Vec<f64> = (0..12).map(|i| 10.0_f64 * 1.7_f64.powi(i)).collect();
    let sweep = ev.eval_jomega_sweep(&omegas).unwrap();
    assert_eq!(sweep.len(), omegas.len());
    for (k, &w) in omegas.iter().enumerate() {
        let one = ev.eval(Complex64::jomega(w)).unwrap();
        assert_eq!(sweep[k], one, "sweep sample at ω={w} differs");
    }
}

/// Stage timings must decompose the pipeline: every stage non-negative,
/// and the reduced model identical to the untimed entry point's.
#[test]
fn timed_reduction_matches_untimed() {
    let _guard = ENV_LOCK.lock().unwrap();
    let net = rc_ladder_loaded(200, 1.0, 1e-3, 5.0, 5);
    let opts = engine_opts();
    let rm_a = reduce_network(&net, &opts).unwrap();
    let (rm_b, stages) = reduce_timed(&net, &opts);
    assert_eq!(model_bytes(&rm_a), model_bytes(&rm_b));
    assert!(stages.assemble_us >= 0.0);
    assert!(stages.partition_us >= 0.0);
    assert!(stages.krylov_us > 0.0);
    assert!(stages.project_us > 0.0);
    assert!(stages.threads >= 1);
    let q = rm_b.reduced_dim();
    assert!(q <= 48 && q >= rm_b.block_sizes.len());
}
