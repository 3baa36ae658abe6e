//! Span-tree contract of the `core::par` fan-out: worker spans nest
//! under the span that was open at fork time, carry their worker index as
//! the logical tid, and are merged into the parent trace **in spawn
//! order** — so the trace layout is deterministic no matter how the OS
//! actually interleaved the workers.
//!
//! These tests mutate the process-global obs level and `BDSM_THREADS`,
//! so they serialize behind one lock.

use bdsm_core::par;
use bdsm_obs::{span, timing_span, ObsLevel, Trace};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Scoped override of `BDSM_THREADS` + obs level, restored on drop.
struct Scope {
    prev_threads: Option<String>,
    prev_level: ObsLevel,
}

impl Scope {
    fn new(threads: &str, level: ObsLevel) -> Scope {
        let prev_threads = std::env::var("BDSM_THREADS").ok();
        let prev_level = bdsm_obs::level();
        std::env::set_var("BDSM_THREADS", threads);
        bdsm_obs::set_level(level);
        Scope {
            prev_threads,
            prev_level,
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        bdsm_obs::set_level(self.prev_level);
        match &self.prev_threads {
            Some(v) => std::env::set_var("BDSM_THREADS", v),
            None => std::env::remove_var("BDSM_THREADS"),
        }
    }
}

/// A tiny traced fan-out: an outer timing span, then `parallel_map` over
/// `items` work items with one fine span each.
fn traced_fanout(items: usize) -> Trace {
    let data: Vec<usize> = (0..items).collect();
    let (_, trace) = Trace::collect(|| {
        let _outer = timing_span!("test.outer");
        par::parallel_map(&data, |i, &x| {
            let _s = span!("test.item", item = i);
            x * 2
        })
    });
    trace
}

#[test]
fn worker_spans_nest_in_spawn_order_with_logical_tids() {
    let _guard = ENV_LOCK.lock().unwrap();
    let _scope = Scope::new("3", ObsLevel::Spans);
    let trace = traced_fanout(8);

    // One outer span at the session root, on the session thread.
    let outer: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "test.outer")
        .collect();
    assert_eq!(outer.len(), 1);
    assert_eq!((outer[0].depth, outer[0].tid), (0, 0));

    // Three workers, each with a `par.worker` span nested one level under
    // the outer span and a distinct logical tid.
    let workers: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "par.worker")
        .collect();
    assert_eq!(workers.len(), 3, "one par.worker span per worker");
    // Adoption happens at join in spawn order, so the merged trace lists
    // worker 1's events, then worker 2's, then worker 3's.
    let tids: Vec<u32> = workers.iter().map(|e| e.tid).collect();
    assert_eq!(tids, vec![1, 2, 3]);
    for w in &workers {
        assert_eq!(w.depth, 1, "worker span nests under the outer span");
    }

    // Every item span sits inside some worker's span: one level deeper,
    // same logical tid as a worker.
    let items: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "test.item")
        .collect();
    assert_eq!(items.len(), 8, "one span per work item");
    for e in &items {
        assert_eq!(e.depth, 2, "item span nests under its worker span");
        assert!((1..=3).contains(&e.tid), "item span carries a worker tid");
    }

    // The merged event order groups each worker's items contiguously
    // (spawn-order adoption), regardless of actual interleaving.
    let item_tids: Vec<u32> = trace
        .events
        .iter()
        .filter(|e| e.name == "test.item")
        .map(|e| e.tid)
        .collect();
    let mut sorted = item_tids.clone();
    sorted.sort_unstable();
    assert_eq!(item_tids, sorted, "worker events adopt in spawn order");
}

#[test]
fn serial_fanout_records_inline_without_worker_spans() {
    let _guard = ENV_LOCK.lock().unwrap();
    let _scope = Scope::new("1", ObsLevel::Spans);
    let trace = traced_fanout(5);
    // The single-worker short-circuit runs on the session thread: no
    // worker spans, item spans directly under the outer span on tid 0.
    assert_eq!(trace.count("par.worker"), 0);
    let items: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "test.item")
        .collect();
    assert_eq!(items.len(), 5);
    for e in &items {
        assert_eq!((e.depth, e.tid), (1, 0));
    }
}

#[test]
fn fine_spans_are_gated_by_level_but_timing_spans_survive_off() {
    let _guard = ENV_LOCK.lock().unwrap();
    // At Off, a trace session still collects Timings-tier spans (that is
    // how `StageTimings` keeps working with observability disabled), but
    // fine `span!` sites stay dark — on the session thread and on
    // workers alike.
    let _scope = Scope::new("3", ObsLevel::Off);
    let trace = traced_fanout(6);
    assert_eq!(trace.count("test.outer"), 1);
    assert_eq!(
        trace.count("test.item"),
        0,
        "fine spans must stay dark at Off"
    );
    assert_eq!(
        trace.count("par.worker"),
        0,
        "worker spans are fine-grained"
    );

    bdsm_obs::set_level(ObsLevel::Timings);
    let trace = traced_fanout(6);
    assert_eq!(trace.count("test.outer"), 1);
    assert_eq!(trace.count("test.item"), 0);

    bdsm_obs::set_level(ObsLevel::Spans);
    let trace = traced_fanout(6);
    assert_eq!(trace.count("test.item"), 6);
}

/// The pencil's symbolic analysis explains itself: one `pencil.order`
/// span directly under `stage.plan` carrying what the ordering selection
/// measured — both symbolic factors on a mesh (which takes the
/// dissection), minimum degree alone on a ladder (its factor has no
/// fill-in, so the dissection never runs) — and nothing below `Spans`.
#[test]
fn plan_stage_records_the_ordering_selection() {
    use bdsm_core::engine::ReductionEngine;
    use bdsm_core::reduce::ReductionOpts;
    use bdsm_core::synth::{rc_grid, rc_ladder_loaded};
    use bdsm_obs::AttrValue;

    let _guard = ENV_LOCK.lock().unwrap();
    let _scope = Scope::new("1", ObsLevel::Spans);
    let opts = ReductionOpts {
        num_blocks: 4,
        ..ReductionOpts::default()
    };
    let attr = |e: &bdsm_obs::SpanEvent, key: &str| -> AttrValue {
        let found = e.attrs.iter().find(|(k, _)| *k == key);
        found.unwrap_or_else(|| panic!("no attr {key}")).1
    };
    let count = |e: &bdsm_obs::SpanEvent, key: &str| match attr(e, key) {
        AttrValue::U64(v) => v,
        other => panic!("{key} is {other:?}"),
    };
    let mesh = rc_grid(40, 40, 1.0, 1e-3, 2.0);
    let ladder = rc_ladder_loaded(500, 1.0, 1e-3, 5.0, 5);
    for (net, kept) in [(&mesh, "nd"), (&ladder, "amd")] {
        let engine = ReductionEngine::new(net, &opts).expect("valid options");
        let (plan, trace) = Trace::collect(|| engine.plan());
        plan.expect("plan stage");
        let stage = trace.events.iter().find(|e| e.name == "stage.plan");
        let stage = stage.expect("stage.plan span");
        let orders: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == "pencil.order")
            .collect();
        assert_eq!(orders.len(), 1, "{kept}: one analysis per plan");
        let e = orders[0];
        assert_eq!(e.depth, stage.depth + 1, "{kept}: child of stage.plan");
        assert!(e.start_ns >= stage.start_ns);
        assert!(e.start_ns + e.dur_ns <= stage.start_ns + stage.dur_ns);
        assert_eq!(attr(e, "kept"), AttrValue::Str(kept));
        let (edges, amd, nd) = (count(e, "edges"), count(e, "fill_amd"), count(e, "fill_nd"));
        if kept == "nd" {
            assert_eq!(count(e, "n"), 1600);
            assert!(edges < nd && nd < amd, "edges {edges}, nd {nd}, amd {amd}");
        } else {
            assert_eq!(
                (amd, nd),
                (edges, 0),
                "a fill-free factor ends the selection"
            );
        }
    }

    bdsm_obs::set_level(ObsLevel::Timings);
    let engine = ReductionEngine::new(&mesh, &opts).expect("valid options");
    let (plan, trace) = Trace::collect(|| engine.plan());
    plan.expect("plan stage");
    assert_eq!(trace.count("stage.plan"), 1);
    assert_eq!(trace.count("pencil.order"), 0, "fine span below Spans");
}

/// The Krylov per-point pass the benchmark's `core.krylov_point_ms` reads:
/// every point of `unique(seeds ∪ grid)` records exactly one
/// `krylov.point` span with `stage = "factor"` and one with
/// `stage = "recur"`, both on the worker that ran the point, the
/// recurrence starting after its factorization ended.
#[test]
fn each_krylov_point_factors_then_recurs_on_one_worker() {
    use bdsm_core::engine::{AdaptiveShiftOpts, ReductionEngine, ShiftStrategy};
    use bdsm_core::krylov::KrylovOpts;
    use bdsm_core::reduce::ReductionOpts;
    use bdsm_core::synth::rc_grid;
    use bdsm_obs::AttrValue;

    let _guard = ENV_LOCK.lock().unwrap();
    let _scope = Scope::new("3", ObsLevel::Spans);
    // One off-grid seed plus a five-point grid: a pass of six points.
    let grid = AdaptiveShiftOpts::log_grid(1e1, 1e4, 5);
    let pass = 1 + grid.len();
    let opts = ReductionOpts {
        num_blocks: 3,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![3.3e2],
            moments_per_point: 2,
            ..KrylovOpts::default()
        },
        shift_strategy: ShiftStrategy::Adaptive(AdaptiveShiftOpts {
            candidate_omegas: grid,
            tol: 1e-6,
            max_shifts: 4,
        }),
        ..ReductionOpts::default()
    };
    let net = rc_grid(16, 16, 1.0, 1e-3, 2.0);
    let engine = ReductionEngine::new(&net, &opts).expect("valid options");
    let (run, trace) = Trace::collect(|| engine.run());
    run.expect("adaptive reduce");

    let attr = |e: &bdsm_obs::SpanEvent, key: &str| -> AttrValue {
        let found = e.attrs.iter().find(|(k, _)| *k == key);
        found.unwrap_or_else(|| panic!("no attr {key}")).1
    };
    let spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "krylov.point")
        .collect();
    assert_eq!(spans.len(), 2 * pass, "two krylov.point spans per point");
    for point in 0..pass as u64 {
        let stage = |name: &'static str| {
            let found: Vec<_> = spans
                .iter()
                .filter(|e| attr(e, "point") == AttrValue::U64(point))
                .filter(|e| attr(e, "stage") == AttrValue::Str(name))
                .collect();
            assert_eq!(found.len(), 1, "point {point}: one {name} span");
            found[0]
        };
        let (factor, recur) = (stage("factor"), stage("recur"));
        assert_eq!(factor.tid, recur.tid, "point {point}: one worker");
        assert!(
            recur.start_ns >= factor.start_ns + factor.dur_ns,
            "point {point}: the recurrence starts after its factor ends"
        );
    }
}

/// Span accounting of the Krylov stage at scale: on one worker (so span
/// self-times add up to wall-clock instead of overlapping) the
/// `krylov.point` + `krylov.merge` spans of the fixed 8-point reduce of
/// a 10⁴-state ladder cover `stage.krylov` within 5 %. Work added inside
/// that stage without a span of its own breaks the band.
#[test]
fn krylov_point_and_merge_spans_cover_the_krylov_stage() {
    use bdsm_core::engine::ReductionEngine;
    use bdsm_core::krylov::KrylovOpts;
    use bdsm_core::reduce::{ReductionOpts, StageTimings};
    use bdsm_core::synth::rc_ladder_loaded;

    let _guard = ENV_LOCK.lock().unwrap();
    let _scope = Scope::new("1", ObsLevel::Spans);
    let opts = ReductionOpts {
        num_blocks: 8,
        krylov: KrylovOpts {
            expansion_points: vec![],
            jomega_points: vec![2.0e1, 5.0e1, 1.5e2, 4.5e2, 1.5e3, 4.0e3, 1.2e4, 4.0e4],
            moments_per_point: 2,
            deflation_tol: 1e-12,
            ..KrylovOpts::default()
        },
        rank_tol: 1e-12,
        max_reduced_dim: Some(2000),
        ..ReductionOpts::default()
    };
    let net = rc_ladder_loaded(10_000, 1.0, 1e-3, 5.0, 5);
    let engine = ReductionEngine::new(&net, &opts).expect("valid options");
    let (_, report) = engine.run().expect("fixed reduce");
    let stages = StageTimings::from_report(&report);
    let per_point_us = stages.krylov_point_us + stages.krylov_merge_us;
    let coverage = per_point_us / stages.krylov_us;
    assert!(
        (0.95..=1.05).contains(&coverage),
        "per-point spans sum to {per_point_us:.1} µs but stage.krylov is {:.1} µs \
         (coverage {coverage:.3}, required within 5 %)",
        stages.krylov_us,
    );
}
