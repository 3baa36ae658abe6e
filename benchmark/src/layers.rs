//! The traced run's per-layer numbers, all taken from outside the program:
//! harness stopwatches around calls into each layer's public functions,
//! the span and metric names the program already emits read as they are,
//! and micro-probes of public kernels at the shapes the workload produced.
//!
//! Rates are computed from operation counts (`2mnk` for a product,
//! `(8/3)q³` for a complex LU, 16 bytes per stored complex factor entry);
//! they say how far a layer is from what the host can do, measured in the
//! same process by [`gemm_peak_gflops`] and [`stream_gbps`].

use crate::gen::{Netlist, Request, Rng, Stream};
use crate::oracle::Nodal;
use crate::run::{
    build, err, ms, nproc, repeat_for, secs, serve, set_engine_threads, Built, Cluster, Fixture,
    Pace, Run, Sample, ServeCtx, Served, Target,
};
use crate::spec::Topology;
use crate::stats::median;
use bdsm::circuit::{mna, partition_network_with, PartitionStrategy};
use bdsm::cluster::wire::{Frame, Request as WireRequest, Response as WireResponse};
use bdsm::core::ZLu;
use bdsm::linalg::{block_project, gemm_acc, Complex64, Matrix, Svd};
use bdsm::obs::{self, ObsLevel};
use bdsm::rom::{Reducer, RomArtifact};
use bdsm::sim::TransientSolver;
use bdsm::sparse::{LuWorkspace, ShiftedPencil};
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `reps` calls, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// Sum of a span name over a trace, in milliseconds; `None` when the
/// program no longer emits the name.
fn span_ms(trace: &obs::Trace, name: &str) -> Option<f64> {
    (trace.count(name) > 0).then(|| trace.total_us(name) / 1e3)
}

/// The traced reduce phase: the same builds with the engine on one worker
/// so self-times sum to wall — untraced first (the plain single-thread
/// baseline), then under `ObsLevel::Spans`. One build on all workers
/// before them warms the process and gives the parallel efficiency.
pub fn traced_reduce(run: &mut Run, fx: &Fixture, reducer: &Reducer) -> Result<Built, String> {
    let text = fx.net.text.as_str();
    let share = run.args.seconds / 4.0;
    let par = repeat_for(share, || build(text, reducer))?;
    set_engine_threads(1);
    let one = repeat_for(share, || build(text, reducer))?;

    obs::set_level(ObsLevel::Spans);
    let mut walls = Vec::new();
    let mut stages: Vec<(&'static str, &'static str, Vec<f64>)> = [
        ("core.plan_ms", "stage.plan"),
        ("core.krylov_point_ms", "krylov.point"),
        ("core.krylov_merge_ms", "krylov.merge"),
        ("core.svd_ms", "stage.svd"),
        ("core.project_ms", "stage.project"),
        ("core.certify_ms", "stage.certify"),
    ]
    .map(|(metric, span)| (metric, span, Vec::new()))
    .into();
    let mut parse_ms = Vec::new();
    let mut last = None;
    let traced = repeat_for(share, || {
        obs::metrics().reset();
        let t = Instant::now();
        let net = bdsm::io::parse_netlist(text).map_err(err("parse_netlist"))?;
        parse_ms.push(ms(t.elapsed()));
        let began = Instant::now();
        let (rm, report, _) = reducer.reduce_traced(&net).map_err(err("reduce_traced"))?;
        let reduce_secs = secs(began.elapsed());
        let bytes = RomArtifact::from_model(&rm, Some(&report)).to_bytes();
        walls.push(secs(t.elapsed()));
        for (_, span, samples) in &mut stages {
            samples.extend(span_ms(&report.trace, span));
        }
        let factor_count = obs::metrics().snapshot().get("lu_factorizations");
        last = Some((rm, report, began, reduce_secs, factor_count));
        Ok(bytes)
    })?;
    obs::set_level(ObsLevel::Off);
    set_engine_threads(nproc());

    let (rm, report, began, reduce_secs, factor_count) = last.expect("one traced build ran");
    run.tally.op(traced.iter().all(|b| *b == traced[0]), || {
        "two traced builds gave different artifact bytes".into()
    });
    run.rec.absorb(&report.trace, began, 0);
    for (metric, _, samples) in &stages {
        if !samples.is_empty() {
            run.set(metric, median(samples));
        }
    }
    let staged_us: f64 = report.trace.top_level_totals_us().iter().map(|s| s.1).sum();
    run.set("core.stage_coverage", staged_us / (reduce_secs * 1e6));
    let (n, cols) = (rm.full_dim() as f64, report.basis_cols as f64);
    if let Some(merge_ms) = span_ms(&report.trace, "krylov.merge") {
        // Two block-projection passes of every 8-column panel against the
        // columns accepted before it: 8·n·qc·pc flops per panel, which
        // sums to about 4·n·cols² over a basis of `cols` columns.
        run.set(
            "core.merge_gflops",
            4.0 * n * cols * cols / (merge_ms * 1e6),
        );
    }
    run.set("core.adaptive_rounds", report.rounds.len() as f64);
    run.set("circuit.interface_states", rm.interface_states.len() as f64);
    if let Some(count) = factor_count {
        run.set("sparse.lu_factor_count", count as f64);
    }
    if report.trace.count("lu.solve") > 0 {
        run.set(
            "sparse.lu_solve_count",
            report.trace.count("lu.solve") as f64,
        );
    }
    run.set("obs.span_count", report.trace.len() as f64);
    run.set("io.parse_ms", median(&parse_ms));
    run.set(
        "io.parse_mb_per_s",
        text.len() as f64 / 1e3 / median(&parse_ms),
    );

    let t_par = median(&par.iter().map(|b| b.secs).collect::<Vec<_>>());
    let t_one = median(&one.iter().map(|b| b.secs).collect::<Vec<_>>());
    run.set("reduce_s", t_par);
    run.set("core.reduce_1t_s", t_one);
    run.set("core.par_efficiency", t_one / (nproc() as f64 * t_par));
    run.set("obs.trace_overhead", median(&walls) / t_one - 1.0);
    run.note("reduce_samples", par.len());
    run.note("traced_builds", traced.len());
    Ok(par.into_iter().next().expect("one parallel build ran"))
}

/// Median per-frequency latency of the stream's commonest outcome — all
/// hits if any request was, else all misses, else every request — so a
/// traced and an untraced share of one stream compare like with like
/// whatever their mix of outcomes.
pub fn typical_ms(served: &Served) -> f64 {
    let per_freq = |want: Option<Option<bool>>| -> Vec<f64> {
        let all = served.samples.iter().flatten();
        all.filter(|s| want.is_none_or(|w| s.outcome == w))
            .map(|s| s.ms / s.request.freqs().len().max(1) as f64)
            .collect()
    };
    let pick = [Some(Some(true)), Some(Some(false)), None]
        .into_iter()
        .map(per_freq)
        .find(|v| !v.is_empty());
    median(&pick.expect("a served stream has samples"))
}

/// Per-layer numbers of the serving phase: latency by request kind and by
/// cache outcome (labelled by the harness's model of the cache), and how
/// much of the timed window the per-request spans cover.
pub fn serving(run: &mut Run, served: &Served) {
    let all: Vec<&Sample> = served.samples.iter().flatten().collect();
    type Pick = fn(&Sample) -> Option<f64>;
    let picks: [(&'static str, Pick); 5] = [
        ("rom.sweep_ms_p50", |s| {
            matches!(s.request, Request::Sweep(_) | Request::Batch(_)).then_some(s.ms)
        }),
        ("rom.port_ms_p50", |s| {
            matches!(s.request, Request::Port { .. }).then_some(s.ms)
        }),
        ("rom.transient_ms_p50", |s| {
            matches!(s.request, Request::Transient { .. }).then_some(s.ms)
        }),
        // Per frequency, so requests of different widths compare.
        ("rom.hit_ms_p50", |s| {
            (s.outcome == Some(true)).then(|| s.ms / s.request.freqs().len() as f64)
        }),
        ("rom.miss_ms_p50", |s| {
            (s.outcome == Some(false)).then(|| s.ms / s.request.freqs().len() as f64)
        }),
    ];
    for (metric, pick) in picks {
        let ms: Vec<f64> = all.iter().filter_map(|s| pick(s)).collect();
        if !ms.is_empty() {
            run.set(metric, median(&ms));
        }
    }

    let spans_us: f64 = served
        .traces
        .iter()
        .map(|(t, _)| t.total_us("bench.request"))
        .sum();
    let window_secs: f64 = served.round_secs.iter().flatten().sum();
    run.set("rom.span_coverage", spans_us / (window_secs * 1e6));
    let spans: usize = served.traces.iter().map(|(t, _)| t.len()).sum();
    let reduce_spans = run.values.get("obs.span_count").copied().unwrap_or(0.0);
    run.set("obs.span_count", reduce_spans + spans as f64);
}

/// Best-case `gemm_acc`: square panels that fit the second-level cache.
pub fn gemm_peak_gflops() -> f64 {
    let n = 192;
    let a = vec![1.000_1f64; n * n];
    let b = vec![0.999_9f64; n * n];
    let mut c = vec![0.0f64; n * n];
    let mut best = f64::INFINITY;
    for _ in 0..12 {
        let t = Instant::now();
        gemm_acc(n, n, n, &a, n, &b, n, &mut c, n);
        best = best.min(secs(t.elapsed()));
        black_box(&mut c);
    }
    2.0 * (n * n * n) as f64 / best / 1e9
}

fn last_level_cache_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.strip_suffix('K') {
                Some(d) => (d, 1 << 10),
                None => (text.strip_suffix('M')?, 1 << 20),
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

/// Largest array the bandwidth probe touches. First touch of fresh guest
/// memory costs this host 2–15 s per GiB, so four times its reported
/// last-level cache (260 MiB, the whole socket's) is not affordable in
/// every traced run.
const STREAM_CAP_BYTES: usize = 256 << 20;

/// STREAM-style scale (`a[i] = k·a[i]`, read + write traffic), in place
/// over one array of four times the last-level cache or
/// [`STREAM_CAP_BYTES`], whichever is smaller. Returns `(GB/s, array
/// bytes, LLC bytes)`; both sizes are printed with the result.
pub fn stream_gbps() -> (f64, usize, usize) {
    let llc = last_level_cache_bytes();
    let len = (4 * llc).min(STREAM_CAP_BYTES) / 8;
    let mut a = vec![1.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        a.iter_mut().for_each(|v| *v *= 1.000_000_1);
        best = best.min(secs(t.elapsed()));
        black_box(&mut a);
    }
    (2.0 * (len * 8) as f64 / best / 1e9, len * 8, llc)
}

/// Micro-probes of the public kernels at the shapes this workload
/// produced.
pub fn kernels(
    run: &mut Run,
    artifact: &RomArtifact,
    bytes: &[u8],
    nodal: &Nodal,
    netlist: &Netlist,
) -> Result<(), String> {
    let topology = run.args.spec.topology;
    let q = artifact.reduced_dim();

    // linalg: the two host peaks first, then the kernels they bound.
    run.set("linalg.gemm_peak_gflops", gemm_peak_gflops());
    let (gbps, array_bytes, llc) = stream_gbps();
    run.set("linalg.stream_gbps", gbps);
    run.note(
        "stream_array",
        format!("{} MiB (LLC {} MiB)", array_bytes >> 20, llc >> 20),
    );
    let n = artifact.full_dim();
    let mut rng = Rng::new(1);
    let basis: Vec<f64> = (0..n * 64).map(|_| rng.unit() - 0.5).collect();
    let mut h = Vec::new();
    let ms = time_ms(5, || {
        let mut panel: Vec<f64> = basis[..n * 8].to_vec();
        block_project(n, 64, &basis, 8, &mut panel, &mut h);
        panel
    });
    run.set("linalg.block_project_ms", ms);
    run.set(
        "linalg.block_project_gflops",
        4.0 * (n * 64 * 8) as f64 / (ms * 1e6),
    );
    let block_rows = artifact.block_sizes.iter().copied().max().unwrap_or(n);
    let cols = artifact.provenance.basis_cols.min(block_rows);
    let slice = Matrix::from_fn(block_rows, cols, |_, _| rng.unit() - 0.5);
    run.set(
        "linalg.svd_block_ms",
        time_ms(1, || Svd::compute(&slice).map(|s| s.sigma.len())),
    );
    run.note("svd_block_shape", format!("{block_rows} x {cols}"));

    let s = Complex64::jomega(4.5e2);
    let zlu = ZLu::factor_shifted(&artifact.g, &artifact.c, s).map_err(err("ZLu factor"))?;
    let ms = time_ms(5, || {
        ZLu::factor_shifted(&artifact.g, &artifact.c, s).is_ok()
    });
    run.set("linalg.zlu_factor_ms", ms);
    run.set(
        "linalg.zlu_factor_gflops",
        8.0 / 3.0 * (q * q * q) as f64 / (ms * 1e6),
    );
    let rhs: Vec<Complex64> = (0..q)
        .map(|i| Complex64::from_real(1.0 + i as f64))
        .collect();
    let ms = time_ms(25, || zlu.solve(&rhs).is_ok());
    run.set("linalg.zlu_solve_ms", ms);
    run.set("linalg.zlu_solve_gbps", 16.0 * (q * q) as f64 / (ms * 1e6));

    // rom: the codec on the workload's own artifact.
    let enc = time_ms(5, || artifact.to_bytes().len());
    let dec = time_ms(5, || RomArtifact::from_bytes(bytes).is_ok());
    run.set("rom.encode_ms", enc);
    run.set("rom.decode_ms", dec);
    run.set(
        "rom.codec_mb_per_s",
        2.0 * bytes.len() as f64 / 1e3 / (enc + dec),
    );

    // sim: the transient solver behind `RomServer::transient`.
    let (g, c, b, l) = (&artifact.g, &artifact.c, &artifact.b, &artifact.l);
    run.set(
        "sim.factor_ms",
        time_ms(3, || TransientSolver::new(g, c, b, l, 1e-3).is_ok()),
    );
    let mut solver = TransientSolver::new(g, c, b, l, 1e-3).map_err(err("TransientSolver"))?;
    let u = vec![1.0; artifact.num_inputs()];
    let ms = time_ms(3, || solver.run_constant(&u, 200).map(|y| y.len()));
    run.set("sim.step_us", ms * 1e3 / 200.0);

    if run.args.spec.kind != crate::spec::Kind::Reduce {
        return Ok(());
    }

    // circuit and sparse: the workload's own network and pencil.
    let net = bdsm::io::parse_netlist(&netlist.text).map_err(err("parse_netlist"))?;
    run.set(
        "circuit.assemble_ms",
        time_ms(3, || mna::assemble(&net).map(|d| d.dim())),
    );
    let (blocks, strategy) = match topology {
        Topology::Ladder => (8, PartitionStrategy::Bfs),
        Topology::Mesh => (4, PartitionStrategy::NestedDissection),
    };
    run.set(
        "circuit.partition_ms",
        time_ms(1, || {
            partition_network_with(&net, blocks, strategy).map(|p| p.num_blocks())
        }),
    );
    run.set(
        "sparse.symbolic_ms",
        time_ms(3, || {
            ShiftedPencil::new(&nodal.g, &nodal.c).map(|p| p.nnz())
        }),
    );
    let pencil = ShiftedPencil::new(&nodal.g, &nodal.c).map_err(err("ShiftedPencil"))?;
    let mut ws = LuWorkspace::new();
    let lu = pencil
        .factor_complex_with(s, &mut ws)
        .map_err(err("sparse factor"))?;
    run.set(
        "sparse.factor_ms",
        time_ms(1, || pencil.factor_complex_with(s, &mut ws).is_ok()),
    );
    run.set("sparse.factor_nnz", lu.factor_nnz() as f64);
    let ports = netlist.ports.len();
    let rhs = nodal.rhs();
    let ms = time_ms(5, || lu.solve_multi_real(&rhs, ports).is_ok());
    run.set("sparse.solve_multi_ms", ms);
    run.set(
        "sparse.solve_gbps",
        16.0 * (lu.factor_nnz() * ports) as f64 / (ms * 1e6),
    );
    Ok(())
}

/// Transport numbers of `cluster-warm`: the wire codec on the workload's
/// own frames, the ping floor, and the same stream on one local server.
pub fn cluster(
    run: &mut Run,
    cluster: &Cluster,
    served: &Served,
    local: &Target,
    ctx: &ServeCtx,
    streams: &[Stream],
    pace: Pace,
) -> Result<(), String> {
    let mut pings: Vec<f64> = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        cluster.client.ping(0).map_err(err("ping"))?;
        pings.push(secs(t.elapsed()) * 1e6);
    }
    run.set("cluster.ping_us", median(&pings));
    run.set("cluster.load_rom_ms", median(&cluster.load_ms));

    // One shard's share of a batch: 16 of its 32 samples.
    let omegas: Vec<f64> = ctx.set.iter().copied().cycle().take(16).collect();
    let request = WireRequest::Sweep {
        model: 1,
        omegas: omegas.clone(),
    };
    let stamp = bdsm::cluster::wire::ReplyStamp {
        shard: 0,
        plan_digest: cluster.client.plan().digest(),
    };
    let mats = (0..16)
        .map(|i| ctx.refs[i % ctx.refs.len()].clone())
        .collect();
    let response = WireResponse::Sweep(stamp, mats);
    let (req_bytes, resp_bytes) = (request.to_frame().encode(), response.to_frame().encode());
    let encode = time_ms(200, || {
        (
            request.to_frame().encode().len(),
            response.to_frame().encode().len(),
        )
    });
    let decode = time_ms(200, || {
        let a = Frame::decode(&req_bytes).and_then(|f| WireRequest::from_frame(&f));
        let b = Frame::decode(&resp_bytes).and_then(|f| WireResponse::from_frame(&f));
        a.is_ok() && b.is_ok()
    });
    run.set("cluster.encode_us", encode * 1e3);
    run.set("cluster.decode_us", decode * 1e3);
    // Two shards answer every batch.
    run.set(
        "cluster.bytes_per_req",
        2.0 * (req_bytes.len() + resp_bytes.len()) as f64,
    );

    let mut replay = streams.to_vec();
    let until = Instant::now() + std::time::Duration::from_secs_f64(run.args.seconds / 8.0);
    let local_run = serve(local, ctx, &mut replay, pace, Some(until), None);
    let cluster_rate = served.rate();
    let local_rate = local_run.rate();
    run.set("cluster.over_local", cluster_rate / local_rate);
    run.tally.op(local_run.tally.failed == 0, || {
        "the local replay of the cluster stream failed a check".into()
    });
    Ok(())
}
