//! One run of one workload: set-up, the measured phase, the output checks.
//!
//! Every workload is the whole pipeline — netlist text → artifact bytes →
//! first answer → a request stream — and reports every end-to-end metric;
//! its [`Kind`] says where the measuring time goes. Load is closed loop:
//! each client sends its next request when the previous reply is in.

use crate::affinity;
use crate::gen::{self, Mix, Netlist, Request, Stream};
use crate::layers;
use crate::oracle::{self, LruModel, Nodal, Transfer};
use crate::spec::{Kind, Spec, Topology};
use crate::stats::{least, median, top_percentile};
use bdsm::cluster::{ClientConfig, ClusterClient, NodeConfig, ShardNode, ShardPlan};
use bdsm::core::{AdaptiveShiftOpts, CMatrix, CertStatus, InterfacePolicy};
use bdsm::linalg::Complex64;
use bdsm::obs::{self, ObsLevel, SpanEvent, Trace};
use bdsm::rom::{Reducer, RomArtifact, RomId, RomServer};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Certified band of the mesh build is `[50, 4000]` rad/s; working sets
/// and probes stay strictly inside it, so no request is flagged.
const BAND: (f64, f64) = (60.0, 3.5e3);
/// Probe frequencies of the reduce check.
const PROBES: usize = 12;
/// Relative transfer error a build may show against the full model.
const REDUCE_TOL: f64 = 1e-6;
/// Distance a served reply may keep from the elimination oracle.
const SERVE_TOL: f64 = 1e-9;
/// Transient step of churn requests (above the certified floor 1/4000).
const STEP_H: f64 = 1e-3;
/// Fresh-server opens before the stream, timed for `first_answer_ms`
/// outside `serve-cold`; two more follow every round.
const OPEN_BATCH: usize = 8;
/// Cluster model id.
const MODEL: u64 = 1;

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where to leave the Chrome trace of a traced run.
    pub out: Option<PathBuf>,
}

/// Operations attempted and failed. An operation is a build, a request or
/// a check on one of their outputs.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

pub struct Report {
    pub spec: &'static Spec,
    pub seed: u64,
    pub trace: bool,
    pub tally: Tally,
    /// Measured metrics by name; a metric this run did not measure is
    /// absent.
    pub values: BTreeMap<&'static str, f64>,
    /// Run facts printed beside the metrics (digest, threads, counts).
    pub info: Vec<(&'static str, String)>,
}

/// Harness-owned spans, stitched together with the traces the program
/// records inside its own sessions into one Chrome trace.
pub struct Recorder {
    epoch: Instant,
    pub events: Vec<SpanEvent>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            events: Vec::new(),
        }
    }

    fn since(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` under a harness span on lane `tid`.
    pub fn span<T>(&mut self, name: &'static str, tid: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.events.push(SpanEvent {
            name,
            start_ns: self.since(start),
            dur_ns: start.elapsed().as_nanos() as u64,
            depth: 0,
            tid,
            attrs: Vec::new(),
        });
        out
    }

    /// Adds a program-recorded trace whose session began at `started`,
    /// nested one level under the harness span that wrapped it.
    pub fn absorb(&mut self, trace: &Trace, started: Instant, tid: u32) {
        let offset = self.since(started);
        self.events.extend(trace.events.iter().map(|e| SpanEvent {
            start_ns: e.start_ns + offset,
            depth: e.depth + 1,
            // Engine workers keep their own lanes above the caller's.
            tid: tid + e.tid,
            ..e.clone()
        }));
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Caps the engine's fan-out. Only called while no other thread of this
/// process is running, which is what makes touching the environment safe.
pub fn set_engine_threads(n: usize) {
    std::env::set_var("BDSM_THREADS", n.to_string());
}

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

/// Everything generated from `(workload, seed)`.
pub struct Fixture {
    pub net: Netlist,
    /// Shifts the request streams draw from. Fixed per workload (not
    /// seeded), so cache-segment occupancy is the same on every seed.
    pub working_set: Vec<f64>,
    /// One stream per client.
    pub streams: Vec<Stream>,
    pub digest: u64,
}

/// How a client's requests are grouped.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Requests per client per round. Counts are taken over a round, and
    /// opens and builds run between rounds.
    pub round_len: usize,
    /// Requests per timing window, a whole number of them to the round:
    /// sized so a window takes 30–130 ms — long against the clock, short
    /// against the moments for which the host leaves the program alone,
    /// so that a run of a hundred windows has quiet ones among them. The
    /// churn workload's window is its round: a shorter one would not hold
    /// the same request mix every time.
    pub window: usize,
}

/// The shape of a workload's request stream.
struct StreamShape {
    /// Closed-loop clients, one stream each.
    clients: usize,
    /// Shifts in the working set.
    set_len: usize,
    mix: Mix,
    pace: Pace,
}

fn stream_shape(spec: &Spec) -> StreamShape {
    let (clients, set_len, mix, round_len, window) = match (spec.kind, spec.topology) {
        // The ladder's ROM is so small (q ≈ 80) that an eight-frequency
        // request is timer-sized; the whole working set makes a request of
        // about a millisecond.
        (Kind::Reduce, Topology::Ladder) => (1, 48, Mix::UniformSweeps { freqs: 48 }, 256, 32),
        (Kind::Reduce, Topology::Mesh) => (1, 48, Mix::UniformSweeps { freqs: 8 }, 24, 8),
        (Kind::Cold, _) => (1, 64, Mix::Sequential, 64, 16),
        (Kind::Warm, _) => (nproc().min(2), 48, Mix::UniformSweeps { freqs: 8 }, 48, 16),
        (Kind::Churn, _) => (1, 64, Mix::ZipfChurn, 50, 50),
        (Kind::Cluster, _) => {
            let mix = Mix::UniformBatches {
                queries: 4,
                freqs: 8,
            };
            (1, 48, mix, 24, 4)
        }
    };
    StreamShape {
        clients,
        set_len,
        mix,
        pace: Pace { round_len, window },
    }
}

pub fn fixture(spec: &Spec, seed: u64) -> Fixture {
    let net = match spec.topology {
        Topology::Ladder => gen::ladder(10_000, seed),
        Topology::Mesh => gen::mesh(100, 100, seed),
    };
    let shape = stream_shape(spec);
    let working_set = gen::shift_set(shape.set_len, BAND.0, BAND.1, spec.name);
    let streams: Vec<Stream> = (0..shape.clients)
        .map(|c| {
            let label = format!("{}/client{c}", spec.name);
            Stream::new(shape.mix, shape.set_len, net.ports.len(), seed, &label)
        })
        .collect();
    let digest = gen::input_digest(&net.text, &working_set, &streams, 256);
    Fixture {
        net,
        working_set,
        streams,
        digest,
    }
}

fn probe_freqs() -> Vec<f64> {
    gen::shift_set(PROBES, BAND.0, BAND.1, "probes")
}

/// `H(jω)` of the full model at every probe, over all CPUs.
fn reference_transfers(nodal: &Nodal, probes: &[f64]) -> Result<Vec<Transfer>, String> {
    let per_lane = probes.len().div_ceil(nproc());
    std::thread::scope(|scope| {
        let lanes: Vec<_> = probes
            .chunks(per_lane)
            .map(|chunk| {
                scope.spawn(move || {
                    let solve = |&w| nodal.transfer(w).map_err(err("reference solve"));
                    chunk.iter().map(solve).collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::new();
        for lane in lanes {
            out.extend(lane.join().expect("reference lane panicked")?);
        }
        Ok(out)
    })
}

// ---------------------------------------------------------------------------
// Build: netlist text → artifact bytes
// ---------------------------------------------------------------------------

pub fn reducer_for(topology: Topology) -> Result<Reducer, String> {
    let builder = match topology {
        // The fixed eight-point configuration of the per-size scaling rows.
        Topology::Ladder => Reducer::builder()
            .blocks(8)
            .jomega_shifts(&[2.0e1, 5.0e1, 1.5e2, 4.5e2, 1.5e3, 4.0e3, 1.2e4, 4.0e4])
            .moments(2)
            .deflation_tol(1e-12)
            .rank_tol(1e-12)
            .budget(2000)
            .sparse(),
        // The headline serving configuration.
        Topology::Mesh => Reducer::builder()
            .blocks(4)
            .nested_dissection()
            .jomega_shifts(&[4.5e2])
            .moments(2)
            .budget(2000)
            .adaptive(AdaptiveShiftOpts {
                candidate_omegas: AdaptiveShiftOpts::log_grid(5.0e1, 4.0e3, 6),
                tol: 1e-6,
                max_shifts: 4,
            })
            .exact_interfaces()
            .sparse(),
    };
    builder.build().map_err(err("reducer configuration"))
}

pub struct Built {
    pub bytes: Vec<u8>,
    pub secs: f64,
}

pub fn build(text: &str, reducer: &Reducer) -> Result<Built, String> {
    let t = Instant::now();
    let net = bdsm::io::parse_netlist(text).map_err(err("parse_netlist"))?;
    let artifact = reducer
        .reduce_to_artifact(&net)
        .map_err(err("reduce_to_artifact"))?;
    let bytes = artifact.to_bytes();
    Ok(Built {
        bytes,
        secs: secs(t.elapsed()),
    })
}

/// Runs `rep` until `budget` seconds have passed, at least once.
pub fn repeat_for<T>(
    budget: f64,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = vec![rep()?];
    while secs(start.elapsed()) < budget {
        out.push(rep()?);
    }
    Ok(out)
}

/// The reduce check: transfer error against the full model at every
/// probe, the certificate, and the block structure. Returns the worst
/// relative error.
fn check_artifact(
    artifact: &RomArtifact,
    topology: Topology,
    nodal: &Nodal,
    probes: &[f64],
    refs: &[Transfer],
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut server = RomServer::new();
    let id = server.load_artifact(artifact.clone());
    let mut worst = 0.0f64;
    for (&w, want) in probes.iter().zip(refs) {
        let got = server
            .transfer_sweep(id, &[w])
            .map_err(err("probe sweep"))?;
        let e = oracle::rel_err(&oracle::flatten(&got[0]), want);
        worst = worst.max(e);
        tally.op(e <= REDUCE_TOL, || {
            format!("transfer error {e:.3e} at ω = {w:.1} exceeds {REDUCE_TOL:.0e}")
        });
    }
    let status = artifact.provenance.certificate.status;
    tally.op(status == CertStatus::Certified, || {
        format!("certificate is {status:?}, not Certified")
    });
    let structure = check_structure(artifact, topology, nodal);
    tally.op(structure.is_ok(), || structure.unwrap_err());
    Ok(worst)
}

/// Block structure of the artifact: block dimensions tile the reduced and
/// full state spaces, the state order is a permutation, and — under exact
/// interfaces — every preserved interface state keeps its full-model
/// conductance and capacitance entries untouched.
fn check_structure(a: &RomArtifact, topology: Topology, nodal: &Nodal) -> Result<(), String> {
    let (n, q) = (a.full_dim(), a.reduced_dim());
    if a.block_dims.iter().sum::<usize>() != q || a.block_sizes.iter().sum::<usize>() != n {
        return Err("block dimensions do not tile the state spaces".into());
    }
    if a.block_dims.len() != a.block_sizes.len() || a.block_dims.contains(&0) {
        return Err("a block has no reduced state".into());
    }
    let mut old_of_new = vec![usize::MAX; n];
    for (old, &new) in a.state_order.iter().enumerate() {
        if new >= n || old_of_new[new] != usize::MAX {
            return Err("state order is not a permutation".into());
        }
        old_of_new[new] = old;
    }
    let exact = topology == Topology::Mesh;
    if exact != (a.provenance.interface_policy == InterfacePolicy::Exact) {
        return Err("interface policy differs from the configured one".into());
    }
    if exact && a.interface_map.len() != a.interface_states.len() {
        return Err("exact interfaces must map every interface state".into());
    }
    // Interface columns of V are unit vectors, so the congruence copies
    // these entries. Checking each state against its first few partners
    // bounds the cost at O(interface states).
    for (k, &(row, col)) in a.interface_map.iter().enumerate() {
        for &(row2, col2) in a.interface_map.iter().skip(k).take(4) {
            let (i, j) = (old_of_new[row], old_of_new[row2]);
            if a.g[(col, col2)] != nodal.g.get(i, j) || a.c[(col, col2)] != nodal.c.get(i, j) {
                return Err(format!(
                    "interface entry ({row}, {row2}) was not preserved exactly"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// What requests are sent to.
pub enum Target<'a> {
    Local(&'a RomServer, RomId),
    Cluster(&'a ClusterClient),
}

enum Reply {
    Sweep(Vec<CMatrix>),
    Batch(Vec<Vec<CMatrix>>),
    Port(Vec<Complex64>),
    Transient(Vec<Vec<f64>>),
}

fn step_inputs(ports: usize, port: usize, steps: usize, on_step: usize) -> Vec<Vec<f64>> {
    (0..steps)
        .map(|k| {
            let mut u = vec![0.0; ports];
            if k >= on_step {
                u[port] = 1.0;
            }
            u
        })
        .collect()
}

impl Target<'_> {
    fn call(&self, req: &Request, ctx: &ServeCtx) -> Result<Reply, String> {
        let omegas = |idx: &[usize]| idx.iter().map(|&i| ctx.set[i]).collect::<Vec<f64>>();
        match (self, req) {
            (Target::Local(s, id), Request::Sweep(f)) => s
                .transfer_sweep(*id, &omegas(f))
                .map(Reply::Sweep)
                .map_err(err("transfer_sweep")),
            (Target::Local(s, id), Request::Batch(qs)) => qs
                .iter()
                .map(|f| s.transfer_sweep(*id, &omegas(f)))
                .collect::<Result<_, _>>()
                .map(Reply::Batch)
                .map_err(err("transfer_sweep")),
            (
                Target::Local(s, id),
                Request::Port {
                    out_port,
                    in_port,
                    freqs,
                },
            ) => s
                .port_response(*id, *out_port, *in_port, &omegas(freqs))
                .map(Reply::Port)
                .map_err(err("port_response")),
            (
                Target::Local(s, id),
                Request::Transient {
                    port,
                    steps,
                    on_step,
                },
            ) => s
                .transient(
                    *id,
                    STEP_H,
                    &step_inputs(ctx.ports, *port, *steps, *on_step),
                )
                .map(Reply::Transient)
                .map_err(err("transient")),
            (Target::Cluster(c), Request::Sweep(f)) => c
                .transfer_sweep(MODEL, &omegas(f))
                .map(Reply::Sweep)
                .map_err(err("cluster transfer_sweep")),
            (Target::Cluster(c), Request::Batch(qs)) => {
                let queries: Vec<(u64, Vec<f64>)> = qs.iter().map(|f| (MODEL, omegas(f))).collect();
                c.sweep_batch(&queries)
                    .map(Reply::Batch)
                    .map_err(err("sweep_batch"))
            }
            (Target::Cluster(_), _) => Err("request kind not routed to the cluster".into()),
        }
    }
}

/// What a reply is checked against.
pub struct ServeCtx<'a> {
    /// The working set.
    pub set: &'a [f64],
    /// Reference reply per working-set entry; every later reply for that
    /// frequency must equal it bit for bit.
    pub refs: &'a [CMatrix],
    /// `H(1/h)`: the first switched-on step of a transient from rest.
    pub step_ref: &'a [(f64, f64)],
    pub ports: usize,
}

fn same_bits(a: &CMatrix, b: &CMatrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && (0..a.nrows()).all(|i| {
            (0..a.ncols()).all(|j| {
                let (x, y): (Complex64, Complex64) = (a[(i, j)], b[(i, j)]);
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
            })
        })
}

fn sweep_matches(mats: &[CMatrix], freqs: &[usize], ctx: &ServeCtx) -> bool {
    mats.len() == freqs.len()
        && mats
            .iter()
            .zip(freqs)
            .all(|(m, &i)| same_bits(m, &ctx.refs[i]))
}

/// Per-client memory of first transient replies, for the repeat check.
type TransientSeen = HashMap<(usize, usize), Vec<Vec<f64>>>;

fn check_reply(
    req: &Request,
    reply: &Reply,
    ctx: &ServeCtx,
    seen: &mut TransientSeen,
) -> Result<(), String> {
    match (req, reply) {
        (Request::Sweep(f), Reply::Sweep(mats)) => sweep_matches(mats, f, ctx)
            .then_some(())
            .ok_or_else(|| "sweep reply differs from the reference bits".into()),
        (Request::Batch(qs), Reply::Batch(replies)) => (replies.len() == qs.len()
            && replies
                .iter()
                .zip(qs)
                .all(|(m, f)| sweep_matches(m, f, ctx)))
        .then_some(())
        .ok_or_else(|| "batch reply differs from the reference bits".into()),
        (
            Request::Port {
                out_port,
                in_port,
                freqs,
            },
            Reply::Port(vals),
        ) => (vals.len() == freqs.len()
            && vals.iter().zip(freqs).all(|(v, &i)| {
                let want: Complex64 = ctx.refs[i][(*out_port, *in_port)];
                v.re.to_bits() == want.re.to_bits() && v.im.to_bits() == want.im.to_bits()
            }))
        .then_some(())
        .ok_or_else(|| "port reply differs from the sweep entry bits".into()),
        (
            Request::Transient {
                port,
                steps,
                on_step,
            },
            Reply::Transient(ys),
        ) => {
            if ys.len() != *steps || ys.iter().flatten().any(|v| !v.is_finite()) {
                return Err("transient reply has the wrong shape or a non-finite value".into());
            }
            if ys[..*on_step].iter().flatten().any(|&v| v != 0.0) {
                return Err("transient moved before its input switched on".into());
            }
            let scale = ctx
                .step_ref
                .iter()
                .fold(f64::MIN_POSITIVE, |s, w| s.max(w.0.hypot(w.1)));
            for (i, &y) in ys[*on_step].iter().enumerate() {
                let want = ctx.step_ref[i * ctx.ports + port].0;
                if (y - want).abs() > SERVE_TOL * scale {
                    return Err(format!(
                        "first transient step {y:e} is not H(1/h) = {want:e}"
                    ));
                }
            }
            let first = seen.entry((*port, *on_step)).or_insert_with(|| ys.clone());
            let same = first
                .iter()
                .flatten()
                .zip(ys.iter().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            same.then_some(())
                .ok_or_else(|| "repeated transient differs bitwise".into())
        }
        _ => Err("reply kind does not match the request".into()),
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in its client's stream.
    pub seq: usize,
    pub request: Request,
    pub ms: f64,
    /// Whether every frequency of the request hit the shift cache
    /// (`Some(false)`: every one missed; `None`: mixed or not known).
    pub outcome: Option<bool>,
}

pub struct Served {
    /// Samples per client, in issue order.
    pub samples: Vec<Vec<Sample>>,
    /// Seconds each round took, per client: the timed span of a client
    /// is the sum of its rounds (opens and builds run between them).
    pub round_secs: Vec<Vec<f64>>,
    /// Requests per timing window (see [`Pace`]).
    pub window: usize,
    /// Seconds each window took, per client, from the first request's
    /// start to the last one's reply checked.
    pub window_secs: Vec<Vec<f64>>,
    pub traces: Vec<(Trace, Instant)>,
    pub tally: Tally,
}

impl Served {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().flatten().map(|s| s.ms).collect()
    }

    fn requests(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Requests per second: every client's fastest window, summed. Host
    /// noise only ever slows a window down, so the best window is the one
    /// that says most about the program (see the README's noise study).
    pub fn rate(&self) -> f64 {
        self.window_secs
            .iter()
            .map(|windows| self.window as f64 / least(windows))
            .sum()
    }

    /// Median request latency of the quietest window.
    fn p50_ms(&self) -> f64 {
        let windows = self.samples.iter().flat_map(|c| c.chunks(self.window));
        let medians: Vec<f64> = windows
            .map(|w| median(&w.iter().map(|s| s.ms).collect::<Vec<_>>()))
            .collect();
        least(&medians)
    }

    fn absorb(&mut self, mut other: Served) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples.drain(..)) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.round_secs.iter_mut().zip(other.round_secs.drain(..)) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.window_secs.iter_mut().zip(other.window_secs.drain(..)) {
            mine.extend(theirs);
        }
        self.traces.append(&mut other.traces);
        self.tally.merge(other.tally);
    }
}

/// What one client brings back from [`serve`].
struct ClientOut {
    samples: Vec<Sample>,
    round_secs: Vec<f64>,
    window_secs: Vec<f64>,
    tally: Tally,
    trace: Option<Trace>,
    began: Instant,
}

/// Keeps the clients of one [`serve`] call in step: all of them end a
/// round before the leader runs the hook, and none starts the next before
/// the hook is done. The opens and builds of the hook therefore run with
/// every client asleep — an open beside a running client shares the
/// memory system with it and reads 1.2–1.5× slower, by an amount that
/// changes from run to run. The leader is always the main thread (the
/// only client, or the caller that waits for several): a spawned thread's
/// allocator arena gives its pages back after every open, and the page
/// faults of the next one are the noisiest thing a guest can time. The
/// leader alone reads the clock, so all clients run the same number of
/// rounds.
struct InStep<'a> {
    barrier: Barrier,
    stop: AtomicBool,
    /// Rounds go on until the clock passes this (`None`: one round).
    until: Option<Instant>,
    between_rounds: Option<&'a (dyn Fn() + Sync)>,
}

impl InStep<'_> {
    /// Ends a round; true when it was the last. The leader's call runs
    /// the hook while the others wait in theirs.
    fn round_done(&self, leader: bool) -> bool {
        self.barrier.wait();
        if leader {
            if let Some(hook) = self.between_rounds {
                hook();
            }
            let done = self.until.is_none_or(|t| Instant::now() >= t);
            self.stop.store(done, Ordering::Release);
        }
        self.barrier.wait();
        self.stop.load(Ordering::Acquire)
    }
}

/// One closed-loop client, the `lane`-th of its call: whole rounds of
/// `pace.round_len` requests, in step with the other clients. A client of
/// a local server does the server's work on its own thread and takes the
/// CPUs in turn, a round on each (see [`affinity`]); a cluster client
/// sleeps while the shard nodes work, and stays where the kernel puts it.
fn client(
    target: &Target,
    ctx: &ServeCtx,
    stream: &mut Stream,
    pace: Pace,
    step: &InStep,
    lane: usize,
    leader: bool,
) -> ClientOut {
    let mut samples = Vec::new();
    let mut round_secs = Vec::new();
    let mut window_secs = Vec::new();
    let mut tally = Tally::default();
    let mut seen = TransientSeen::new();
    let began = Instant::now();
    let mut body = || loop {
        let base = stream.issued();
        if matches!(target, Target::Local(..)) {
            affinity::pin(lane + base / pace.round_len);
        }
        let round = Instant::now();
        let mut window = round;
        for (k, request) in stream.take(pace.round_len).into_iter().enumerate() {
            let span = bdsm::span!("bench.request");
            let t = Instant::now();
            let reply = target.call(&request, ctx);
            let took = ms(t.elapsed());
            drop(span);
            let verdict = reply.and_then(|r| check_reply(&request, &r, ctx, &mut seen));
            tally.op(verdict.is_ok(), || verdict.unwrap_err());
            samples.push(Sample {
                seq: base + k,
                request,
                ms: took,
                outcome: None,
            });
            if (k + 1) % pace.window == 0 {
                let now = Instant::now();
                window_secs.push(secs(now - window));
                window = now;
            }
        }
        round_secs.push(secs(round.elapsed()));
        affinity::release();
        if step.round_done(leader) {
            break;
        }
    };
    // With tracing on, the client records under its own session.
    let trace = if obs::level() == ObsLevel::Spans {
        Some(Trace::collect(body).1)
    } else {
        body();
        None
    };
    ClientOut {
        samples,
        round_secs,
        window_secs,
        tally,
        trace,
        began,
    }
}

/// Runs every client's stream against `target`. A single client runs on
/// the calling thread — a thread per round would hand every round a fresh
/// allocator arena and measure its page faults; several clients get one
/// thread each for the whole call. `between_rounds` runs on the calling
/// thread after every round, outside the round's timing, while the
/// clients wait for it (see [`InStep`]).
pub fn serve(
    target: &Target,
    ctx: &ServeCtx,
    streams: &mut [Stream],
    pace: Pace,
    until: Option<Instant>,
    between_rounds: Option<&(dyn Fn() + Sync)>,
) -> Served {
    assert!(pace.round_len.is_multiple_of(pace.window));
    let spawned = if streams.len() > 1 { streams.len() } else { 0 };
    let step = &InStep {
        barrier: Barrier::new(spawned + 1),
        stop: AtomicBool::new(false),
        until,
        between_rounds,
    };
    let outs: Vec<ClientOut> = match streams {
        [only] => vec![client(target, ctx, only, pace, step, 0, true)],
        many => std::thread::scope(|scope| {
            let handles: Vec<_> = many
                .iter_mut()
                .enumerate()
                .map(|(k, s)| scope.spawn(move || client(target, ctx, s, pace, step, k, false)))
                .collect();
            while !step.round_done(true) {}
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        }),
    };
    let mut served = Served {
        samples: Vec::new(),
        round_secs: Vec::new(),
        window: pace.window,
        window_secs: Vec::new(),
        traces: Vec::new(),
        tally: Tally::default(),
    };
    for out in outs {
        served.samples.push(out.samples);
        served.round_secs.push(out.round_secs);
        served.window_secs.push(out.window_secs);
        served.tally.merge(out.tally);
        served.traces.extend(out.trace.map(|t| (t, out.began)));
    }
    served
}

/// `bytes` → a fresh server with the model loaded: the part of a cold
/// start that comes before the first request.
fn open(bytes: &[u8], capacity: Option<usize>) -> Result<(RomServer, RomId, f64), String> {
    let t = Instant::now();
    let artifact = RomArtifact::from_bytes(bytes).map_err(err("from_bytes"))?;
    let mut server = capacity.map_or_else(RomServer::new, RomServer::with_cache_capacity);
    let id = server.load_artifact(artifact);
    Ok((server, id, ms(t.elapsed())))
}

/// The running two-shard loopback cluster of `cluster-warm`.
pub struct Cluster {
    nodes: Vec<ShardNode>,
    pub client: ClusterClient,
    /// Decode + load + spawn, per node.
    pub load_ms: Vec<f64>,
}

impl Cluster {
    fn spawn(bytes: &[u8]) -> Result<Cluster, String> {
        let artifact = RomArtifact::from_bytes(bytes).map_err(err("from_bytes"))?;
        let (lo, hi) = artifact
            .provenance
            .certificate
            .frequency_envelope()
            .ok_or("the artifact carries no certified envelope to shard by")?;
        let plan = ShardPlan::by_bands(MODEL, 2, lo, hi).map_err(err("shard plan"))?;
        let mut nodes = Vec::new();
        let mut load_ms = Vec::new();
        for shard_id in 0..plan.num_shards() {
            let (server, id, opened_ms) = open(bytes, None)?;
            let t = Instant::now();
            let cfg = NodeConfig {
                shard_id,
                plan_digest: plan.digest(),
                io_timeout: Duration::from_secs(30),
            };
            // A node's threads inherit the spawning thread's CPU: one
            // shard per CPU, as on machines of their own, and not
            // wherever the kernel stacks them — two shards on one CPU
            // answer a batch in turn, at twice the latency.
            affinity::pin(shard_id as usize);
            let node = ShardNode::spawn(server, vec![(MODEL, id)], cfg, "127.0.0.1:0");
            affinity::release();
            let node = node.map_err(err("shard node spawn"))?;
            load_ms.push(opened_ms + ms(t.elapsed()));
            nodes.push(node);
        }
        let addrs: Vec<_> = nodes.iter().map(ShardNode::addr).collect();
        let client = ClusterClient::connect(plan, &addrs, ClientConfig::default())
            .map_err(err("cluster connect"))?;
        Ok(Cluster {
            nodes,
            client,
            load_ms,
        })
    }

    /// Stops the nodes and joins their threads.
    fn shutdown(mut self, tally: &mut Tally) {
        for (shard, result) in self.client.shutdown_all().into_iter().enumerate() {
            tally.op(result.is_ok(), || {
                format!("shard {shard} did not acknowledge shutdown")
            });
        }
        for node in &mut self.nodes {
            node.shutdown();
        }
    }
}

/// The server a workload's stream runs against.
enum UnderTest {
    /// The pre-warmed unbounded reference server itself.
    Reference,
    /// A capacity-bounded server.
    Bounded(RomServer, RomId),
    Cluster(Cluster),
    /// A fresh server per round, opened from the artifact bytes.
    FreshPerRound,
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// State shared by the phases of a run.
pub struct Run<'a> {
    pub args: &'a Args,
    pub rec: Recorder,
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
    pub info: Vec<(&'static str, String)>,
}

impl Run<'_> {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Notes how long a phase that began at `since` took.
    fn note_phase(&mut self, key: &'static str, since: Instant) {
        self.note(key, format!("{:.2} s", secs(since.elapsed())));
    }
}

/// What set-up leaves behind for the measured phases.
struct Ready {
    fx: Fixture,
    nodal: Nodal,
    reducer: Reducer,
    /// Full-model transfers at the probes (reduce workloads).
    probe_refs: Vec<Transfer>,
    /// The artifact build of a serving workload.
    built: Option<Built>,
}

fn set_up(spec: &Spec, seed: u64) -> Result<Ready, String> {
    let fx = fixture(spec, seed);
    let nodal = Nodal::assemble(&fx.net).map_err(err("nodal assembly"))?;
    let reducer = reducer_for(spec.topology)?;
    let (probe_refs, built) = if spec.kind == Kind::Reduce {
        (reference_transfers(&nodal, &probe_freqs())?, None)
    } else {
        (Vec::new(), Some(build(&fx.net.text, &reducer)?))
    };
    Ok(Ready {
        fx,
        nodal,
        reducer,
        probe_refs,
        built,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let spec = args.spec;
    obs::set_level(ObsLevel::Off);
    set_engine_threads(nproc());
    let mut run = Run {
        args,
        rec: Recorder::new(),
        tally: Tally::default(),
        values: BTreeMap::new(),
        info: Vec::new(),
    };

    // A reduce workload's set-up is short (fixture and reference model),
    // so it is repeated and the median reported; a serving workload's is
    // dominated by one artifact build of several seconds.
    let setup_reps = if spec.kind == Kind::Reduce && !args.trace {
        3
    } else {
        1
    };
    let mut setup_secs = Vec::new();
    let mut ready = None;
    for _ in 0..setup_reps {
        let t = Instant::now();
        ready = Some(run.rec.span("bench.setup", 0, || set_up(spec, args.seed))?);
        setup_secs.push(secs(t.elapsed()));
    }
    let Ready {
        mut fx,
        nodal,
        reducer,
        probe_refs,
        built,
    } = ready.expect("at least one set-up ran");
    run.note("input_digest", format!("{:016x}", fx.digest));
    run.note("nproc", nproc());
    run.note("clients", fx.streams.len());
    run.note(
        "threads",
        match spec.kind {
            Kind::Reduce if args.trace => "1 (traced reduce), 1 (serve)".to_string(),
            Kind::Reduce => format!("{} (reduce), 1 (serve)", nproc()),
            _ => format!("{} (set-up build), 1 (serve)", nproc()),
        },
    );

    let t_phase = Instant::now();
    let built = match built {
        Some(b) => {
            run.set("reduce_s", b.secs);
            if args.trace {
                // An untraced run adds two builds.
                run.note("reduce_samples", 1);
            }
            b
        }
        None if args.trace => layers::traced_reduce(&mut run, &fx, &reducer)?,
        None => warmup_builds(&mut run, &fx, &reducer)?,
    };
    let reduce_phase_secs = secs(t_phase.elapsed());
    run.note_phase("phase_reduce", t_phase);
    run.set("artifact_bytes", built.bytes.len() as f64);
    let artifact = RomArtifact::from_bytes(&built.bytes).map_err(err("from_bytes"))?;
    run.set("core.rom_dim", artifact.reduced_dim() as f64);
    run.set("core.basis_cols", artifact.provenance.basis_cols as f64);
    if spec.kind == Kind::Reduce {
        let worst = check_artifact(
            &artifact,
            spec.topology,
            &nodal,
            &probe_freqs(),
            &probe_refs,
            &mut run.tally,
        )?;
        run.set("core.max_rel_err", worst);
    } else {
        let status = artifact.provenance.certificate.status;
        run.tally.op(status == CertStatus::Certified, || {
            format!("certificate is {status:?}, not Certified")
        });
    }

    let t_phase = Instant::now();
    // An untraced run times builds between its serving rounds; a reduce
    // workload's warm-up builds before them were set-up.
    let rebuild = (!args.trace).then_some(&reducer);
    let warmups = spec.kind == Kind::Reduce && !args.trace;
    let setup = median(&setup_secs) + if warmups { reduce_phase_secs } else { 0.0 };
    serve_phase(&mut run, &mut fx, &artifact, &built.bytes, setup, rebuild)?;
    run.note_phase("phase_serve", t_phase);
    run.note("setup_samples", setup_secs.len());
    if args.trace {
        let t_phase = Instant::now();
        layers::kernels(&mut run, &artifact, &built.bytes, &nodal, &fx.net)?;
        run.note_phase("phase_kernels", t_phase);
    }
    run.set("peak_rss_mb", peak_rss_mb()?);

    if let (true, Some(dir)) = (args.trace, &args.out) {
        std::fs::create_dir_all(dir).map_err(err("create the output directory"))?;
        let path = dir.join(format!("{}.trace.json", spec.name));
        let trace = Trace {
            events: std::mem::take(&mut run.rec.events),
        };
        trace
            .save_chrome(&path)
            .map_err(err("write the Chrome trace"))?;
        run.note("chrome_trace", path.display());
    }
    Ok(Report {
        spec,
        seed: args.seed,
        trace: args.trace,
        tally: run.tally,
        values: run.values,
        info: run.info,
    })
}

/// Warm-up builds of an untraced reduce workload; the timed ones follow
/// interleaved with the serving rounds (see [`serve_phase`]).
fn warmup_builds(run: &mut Run, fx: &Fixture, reducer: &Reducer) -> Result<Built, String> {
    let warmups = match run.args.spec.topology {
        Topology::Ladder => 2,
        Topology::Mesh => 1,
    };
    let mut last = None;
    for _ in 0..warmups {
        last = Some(
            run.rec
                .span("bench.warmup", 0, || build(&fx.net.text, reducer))?,
        );
    }
    Ok(last.expect("at least one warm-up build"))
}

/// Replays one client's requests, in issue order, through the cache
/// model and labels each sample with its outcome.
fn replay(model: &mut LruModel, set: &[f64], samples: &mut [&mut Sample]) {
    samples.sort_by_key(|s| s.seq);
    for s in samples {
        let freqs = s.request.freqs();
        let hits = freqs.iter().filter(|&&i| model.touch(set[i])).count();
        s.outcome = match hits {
            _ if freqs.is_empty() => None,
            h if h == freqs.len() => Some(true),
            0 => Some(false),
            _ => None,
        };
    }
}

/// Everything after the artifact exists: reference replies, the server
/// under test, opens, the measured stream, the cache accounting.
fn serve_phase(
    run: &mut Run,
    fx: &mut Fixture,
    artifact: &RomArtifact,
    bytes: &[u8],
    fixture_setup_secs: f64,
    rebuild: Option<&Reducer>,
) -> Result<(), String> {
    let (spec, trace) = (run.args.spec, run.args.trace);
    // The engine fan-out is pinned to one worker: the concurrency of a
    // serving workload is in its clients.
    set_engine_threads(1);
    let t_setup = Instant::now();
    let set = fx.working_set.clone();
    let pace = stream_shape(spec).pace;

    // Reference replies: an unbounded local server answers the working
    // set once, one frequency per request (for the warm workloads this is
    // also the cache warm-up), checked against the elimination oracle at
    // four entries.
    let mut ref_server = RomServer::new();
    let ref_id = ref_server.load_artifact(artifact.clone());
    let refs: Vec<CMatrix> = set
        .iter()
        .map(|&w| {
            ref_server
                .transfer_sweep(ref_id, &[w])
                .map(|mut m| m.remove(0))
                .map_err(err("reference sweep"))
        })
        .collect::<Result<_, _>>()?;
    let (g, c, b, l) = (&artifact.g, &artifact.c, &artifact.b, &artifact.l);
    for k in 0..4 {
        let i = k * (set.len() - 1) / 3;
        let e = oracle::transfer_by_elimination(g, c, b, l, (0.0, set[i]))
            .map(|want| oracle::rel_err(&oracle::flatten(&refs[i]), &want));
        run.tally.op(e.is_some_and(|e| e <= SERVE_TOL), || {
            format!("reply at ω = {:.1} is {e:?} from the oracle", set[i])
        });
    }
    let step_ref = oracle::transfer_by_elimination(g, c, b, l, (1.0 / STEP_H, 0.0))
        .ok_or("the step system G + C/h is singular")?;
    let ctx = ServeCtx {
        set: &set,
        refs: &refs,
        step_ref: &step_ref,
        ports: artifact.num_inputs(),
    };

    let capacity = (spec.kind == Kind::Churn).then_some(16);
    let mut warmup = None;
    let under_test = match spec.kind {
        Kind::Reduce | Kind::Warm => UnderTest::Reference,
        Kind::Cold => UnderTest::FreshPerRound,
        Kind::Churn => {
            // One untimed round fills the bounded cache.
            let (server, id, _) = open(bytes, capacity)?;
            let target = Target::Local(&server, id);
            let fill = Pace {
                round_len: 2 * pace.round_len,
                ..pace
            };
            warmup = Some(serve(&target, &ctx, &mut fx.streams, fill, None, None));
            UnderTest::Bounded(server, id)
        }
        Kind::Cluster => {
            let cluster = Cluster::spawn(bytes)?;
            let warm = cluster
                .client
                .sweep_batch(&[(MODEL, set.clone())])
                .map_err(err("cluster warm-up"))?;
            let all: Vec<usize> = (0..set.len()).collect();
            run.tally.op(sweep_matches(&warm[0], &all, &ctx), || {
                "cluster warm-up reply differs from the local server".into()
            });
            UnderTest::Cluster(cluster)
        }
    };
    run.set("setup_s", fixture_setup_secs + secs(t_setup.elapsed()));

    // The measured stream takes the run's seconds. A traced run measures
    // for a third of them, after half as long again with tracing off, at
    // the same thread count — the two medians give the tracing overhead.
    // A traced reduce workload, whose seconds go to its builds, serves for
    // one: enough requests for a tail percentile.
    let budget = match (spec.kind, trace) {
        (Kind::Reduce, true) => 1.0,
        (_, false) => run.args.seconds,
        (_, true) => run.args.seconds / 3.0,
    };
    let midway = Instant::now() + Duration::from_secs_f64(budget / 2.0);

    // Opens: bytes → fresh server → first reply — a batch before the
    // stream and two after every round of it, so they sample the whole
    // run and not one moment of the host. A `serve-cold` round begins
    // with one more.
    let first_answer = Mutex::new(Vec::new());
    let open_tally = Mutex::new(Tally::default());
    let opens = |count: usize| {
        for k in 0..count {
            affinity::pin(k);
            let t = Instant::now();
            let reply = open(bytes, capacity).and_then(|(server, id, _)| {
                server
                    .transfer_sweep(id, &set[..1])
                    .map_err(err("first transfer_sweep"))
            });
            let took = ms(t.elapsed());
            first_answer.lock().expect("no open panics").push(took);
            let same = reply.map(|r| same_bits(&r[0], &refs[0]));
            let mut tally = open_tally.lock().expect("no open panics");
            tally.op(same == Ok(true), || match same {
                Err(e) => e,
                Ok(_) => "first reply of a fresh server differs from the reference bits".into(),
            });
        }
        affinity::release();
    };
    // Builds are timed between rounds too, on all workers: builds, rounds
    // and opens alternate through the whole run, so each of them meets the
    // host's quiet moments. A reduce workload builds after every round (a
    // mesh build takes fifteen of its rounds, so after every fifth); a
    // serving workload builds midway and once more after its stream, two
    // samples of `reduce_s` beside the set-up build, which ran on fresh
    // memory. Nothing else runs while a build does (the clients wait for
    // the hook), which is what lets it switch the engine's worker cap.
    let builds = Mutex::new(Vec::new());
    let text = fx.net.text.as_str();
    let timed_build = || {
        if let Some(reducer) = rebuild {
            set_engine_threads(nproc());
            let built = build(text, reducer);
            set_engine_threads(1);
            builds.lock().expect("no build panics").push(built);
        }
    };
    let rounds_done = AtomicUsize::new(0);
    let between_rounds = || {
        opens(2);
        let round = rounds_done.fetch_add(1, Ordering::Relaxed);
        let built = builds.lock().expect("no build panics").len();
        let due = match (spec.kind, spec.topology) {
            (Kind::Reduce, Topology::Ladder) => true,
            (Kind::Reduce, Topology::Mesh) => round.is_multiple_of(5),
            _ => built == 0 && Instant::now() >= midway,
        };
        if due {
            timed_build();
        }
    };

    // One counted round, then whole rounds until the budget is used.
    let after = |seconds: f64| Some(Instant::now() + Duration::from_secs_f64(seconds));
    let cache_of = |u: &UnderTest| match u {
        UnderTest::Reference => Some(ref_server.metrics()),
        UnderTest::Bounded(s, _) => Some(s.metrics()),
        UnderTest::Cluster(_) | UnderTest::FreshPerRound => None,
    };
    let before = cache_of(&under_test);
    let cold_counts = RefCell::new(None);
    let segment = |until: Option<Instant>, streams: &mut [Stream]| -> Result<Served, String> {
        let target = match &under_test {
            UnderTest::Reference => Target::Local(&ref_server, ref_id),
            UnderTest::Bounded(s, id) => Target::Local(s, *id),
            UnderTest::Cluster(c) => Target::Cluster(&c.client),
            UnderTest::FreshPerRound => {
                let mut all: Option<Served> = None;
                while all.is_none() || until.is_some_and(|t| Instant::now() < t) {
                    // The open runs where the round will.
                    affinity::pin(streams[0].issued() / pace.round_len);
                    let (server, id, opened_ms) = open(bytes, None)?;
                    let target = Target::Local(&server, id);
                    // One round per call, so the hook sees the fresh
                    // server dropped.
                    let mut round = serve(&target, &ctx, streams, pace, None, None);
                    // Decode and load belong to the cold round.
                    round.round_secs[0][0] += opened_ms / 1e3;
                    let first = opened_ms + round.samples[0][0].ms;
                    first_answer.lock().expect("no open panics").push(first);
                    cold_counts.borrow_mut().get_or_insert(server.metrics());
                    drop(server);
                    between_rounds();
                    match &mut all {
                        Some(a) => a.absorb(round),
                        None => all = Some(round),
                    }
                }
                return Ok(all.expect("at least one round ran"));
            }
        };
        Ok(serve(
            &target,
            &ctx,
            streams,
            pace,
            until,
            Some(&between_rounds),
        ))
    };
    obs::set_level(if trace {
        ObsLevel::Spans
    } else {
        ObsLevel::Off
    });
    if spec.kind != Kind::Cold {
        opens(OPEN_BATCH);
    }
    let until = after(budget);
    let mut served = segment(None, &mut fx.streams)?;
    let counted = cache_of(&under_test).or(cold_counts.borrow_mut().take());
    let cluster_counted = match &under_test {
        UnderTest::Cluster(c) => Some(c.client.metrics()),
        _ => None,
    };
    let mut plain = None;
    if trace {
        obs::set_level(ObsLevel::Off);
        plain = Some(segment(after(budget / 2.0), &mut fx.streams)?);
        obs::set_level(ObsLevel::Spans);
    }
    let until = if trace { after(budget) } else { until };
    served.absorb(segment(until, &mut fx.streams)?);
    obs::set_level(ObsLevel::Off);
    if spec.kind != Kind::Reduce {
        timed_build();
    }
    run.tally
        .merge(open_tally.into_inner().expect("no open panics"));
    let builds: Vec<Built> = builds
        .into_inner()
        .expect("no build panics")
        .into_iter()
        .collect::<Result<_, _>>()?;
    if !builds.is_empty() {
        for b in &builds {
            run.tally.op(b.bytes == bytes, || {
                "two builds of one netlist gave different artifact bytes".into()
            });
        }
        // A serving workload's set-up build is a sample too.
        let mut times: Vec<f64> = builds.iter().map(|b| b.secs).collect();
        times.extend(run.values.get("reduce_s"));
        run.set("reduce_s", least(&times));
        run.note("reduce_samples", times.len());
    }

    // Cache outcomes. One client makes them a pure function of the
    // stream, so the LRU model replays it (set-up round first) and must
    // agree with the server's counters exactly. Otherwise the cache is
    // unbounded and warm (all hits) or fresh per round (all misses).
    let single = fx.streams.len() == 1 && before.is_some();
    let mut model = LruModel::new(capacity);
    if single {
        match &mut warmup {
            Some(w) => replay(
                &mut model,
                &set,
                &mut w.samples[0].iter_mut().collect::<Vec<_>>(),
            ),
            None => set.iter().for_each(|&w| {
                model.touch(w);
            }),
        }
        (model.hits, model.misses, model.evictions) = (0, 0, 0);
        let mut order: Vec<&mut Sample> = served.samples[0].iter_mut().collect();
        order.extend(plain.iter_mut().flat_map(|p| p.samples[0].iter_mut()));
        replay(&mut model, &set, &mut order);
    } else {
        let fixed = Some(spec.kind != Kind::Cold);
        let all = served
            .samples
            .iter_mut()
            .chain(plain.iter_mut().flat_map(|p| &mut p.samples));
        all.flatten()
            .filter(|s| !s.request.freqs().is_empty())
            .for_each(|s| s.outcome = fixed);
    }
    if let (Some(before), Some(after)) = (&before, cache_of(&under_test)) {
        let live = match &under_test {
            UnderTest::Bounded(s, id) => s.cached_shifts(*id),
            _ => ref_server.cached_shifts(ref_id),
        }
        .map_err(err("cached_shifts"))? as u64;
        let m = after.cache;
        run.tally.op(m.misses == m.inserts, || {
            format!("misses {} != inserts {}", m.misses, m.inserts)
        });
        run.tally.op(live == m.inserts - m.evictions, || {
            format!(
                "live {live} != inserts {} - evictions {}",
                m.inserts, m.evictions
            )
        });
        run.set("rom.flagged", after.envelope_flags as f64);
        run.set("rom.refused", after.envelope_refusals as f64);
        let outside = after.envelope_flags + after.envelope_refusals;
        run.tally.op(outside == 0, || {
            format!("{outside} samples left the certified envelope")
        });
        let got = (
            m.hits - before.cache.hits,
            m.misses - before.cache.misses,
            m.evictions - before.cache.evictions,
        );
        if single {
            let want = (model.hits, model.misses, model.evictions);
            run.tally
                .op(got == want && live == model.live() as u64, || {
                    format!("cache (hits, misses, evictions) {got:?} != LRU model {want:?}")
                });
        } else {
            run.tally.op(got.1 == 0 && got.2 == 0, || {
                format!("warm cache saw {} misses, {} evictions", got.1, got.2)
            });
        }
    }
    if let Some(after_first) = counted {
        let base = before.as_ref().map(|b| b.cache);
        let since = |now: u64, pick: fn(&obs::CacheStatsSnapshot) -> u64| {
            now - base.as_ref().map_or(0, pick)
        };
        let hits = since(after_first.cache.hits, |c| c.hits);
        let misses = since(after_first.cache.misses, |c| c.misses);
        run.set("rom.cache_hits", hits as f64);
        run.set("rom.cache_misses", misses as f64);
        run.set(
            "rom.cache_evictions",
            since(after_first.cache.evictions, |c| c.evictions) as f64,
        );
        run.set("rom.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    }
    if let Some(m) = cluster_counted {
        run.set("cluster.rpcs", m.rpcs as f64);
        run.set("cluster.coalesced", m.coalesced_queries as f64);
    }

    let lat = served.latencies();
    let first_answer = first_answer.into_inner().expect("no open panics");
    run.set("req_per_s", served.rate());
    run.set("p50_ms", served.p50_ms());
    // The quietest open, for the same reason the best window is reported:
    // an open is disturbed or it is not, and never runs fast by luck.
    run.set("first_answer_ms", least(&first_answer));
    run.note("requests", served.requests());
    run.note("first_answer_samples", first_answer.len());
    if let Some((p, v)) = top_percentile(&lat) {
        run.set("rom.p99_ms", v);
        run.note("tail", format!("p{} of {} samples", p * 100.0, lat.len()));
    }
    if let Some(p) = &plain {
        let overhead = layers::typical_ms(&served) / layers::typical_ms(p) - 1.0;
        run.set("obs.trace_overhead", overhead);
    }
    if trace {
        layers::serving(run, &served);
        if let UnderTest::Cluster(c) = &under_test {
            let local = Target::Local(&ref_server, ref_id);
            layers::cluster(run, c, &served, &local, &ctx, &fx.streams, pace)?;
        }
    }
    for (lane, (trace, began)) in served.traces.iter().enumerate() {
        run.rec.absorb(trace, *began, 10 * (lane as u32 + 1));
    }
    run.tally.merge(served.tally);
    for other in [plain, warmup].into_iter().flatten() {
        run.tally.merge(other.tally);
    }
    if let UnderTest::Cluster(c) = under_test {
        let m = c.client.metrics();
        run.set("cluster.retries", m.retries as f64);
        run.tally.op(m.retries == 0 && m.remote_errors == 0, || {
            format!(
                "cluster saw {} retries, {} remote errors",
                m.retries, m.remote_errors
            )
        });
        c.shutdown(&mut run.tally);
    }
    Ok(())
}

/// Serialises the tests that set `BDSM_THREADS` or build models (which
/// read it): the process environment is shared by all test threads.
#[cfg(test)]
pub static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn args(name: &str, seed: u64, trace: bool) -> Args {
        Args {
            spec: spec::workload(name).expect("a listed workload"),
            seed,
            seconds: 0.2,
            trace,
            out: None,
        }
    }

    #[test]
    fn fixtures_repeat_per_seed() {
        for w in &spec::WORKLOADS {
            let (a, b, c) = (fixture(w, 11), fixture(w, 11), fixture(w, 12));
            assert_eq!(a.digest, b.digest, "{}", w.name);
            assert_ne!(a.digest, c.digest, "{}", w.name);
            assert_eq!(a.working_set, c.working_set, "working sets are not seeded");
            assert_eq!(a.streams.len(), stream_shape(w).clients);
            let (lo, hi) = (BAND.0, BAND.1);
            assert!(a.working_set.iter().all(|&w| lo <= w && w <= hi));
        }
        // Probes are not shifts of either reducer.
        let shifts = [2.0e1, 5.0e1, 1.5e2, 4.5e2, 1.5e3, 4.0e3, 1.2e4, 4.0e4];
        assert!(probe_freqs().iter().all(|p| !shifts.contains(p)));
    }

    /// Seeds other than the default pass every correctness check, end to
    /// end, untraced and traced: a claim can be re-run on a seed that was
    /// not used while it was written.
    #[test]
    fn other_seeds_pass_every_check() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        for (seed, trace) in [(12, false), (13, true)] {
            let report = run(&args("reduce-ladder-10k", seed, trace)).expect("the run completes");
            assert_eq!(report.tally.failed, 0, "{:?}", report.tally.failures);
            assert!(report.tally.attempted > 100);
            let names: Vec<&str> = if trace {
                vec![
                    "core.krylov_merge_ms",
                    "core.stage_coverage",
                    "rom.hit_rate",
                ]
            } else {
                spec::END_TO_END.iter().map(|m| m.0).collect()
            };
            for name in names {
                assert!(report.values[name] > 0.0, "{name} was not measured");
            }
        }
    }

    /// Two clients in step with the main thread, which opens servers and
    /// builds the model a second time while they wait: every reply and
    /// both builds check out, and every client ran every round.
    #[test]
    fn clients_in_step_pass_every_check() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let report = run(&args("serve-warm", 15, false)).expect("the run completes");
        assert_eq!(report.tally.failed, 0, "{:?}", report.tally.failures);
        let info = |key: &str| {
            report
                .info
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(info("reduce_samples"), Some("3"));
        let requests: usize = info("requests").expect("noted").parse().expect("a count");
        let per_round =
            fixture(report.spec, 15).streams.len() * stream_shape(report.spec).pace.round_len;
        assert!(requests >= 2 * per_round && requests.is_multiple_of(per_round));
    }

    /// `serve-churn` on a seed not used elsewhere: the server's cache
    /// counters equal the LRU model's (a mismatch would be a failed
    /// operation), with evictions actually happening.
    #[test]
    fn churn_counts_match_the_model_on_another_seed() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let report = run(&args("serve-churn", 14, true)).expect("the run completes");
        assert_eq!(report.tally.failed, 0, "{:?}", report.tally.failures);
        assert!(report.values["rom.cache_evictions"] > 0.0);
        assert!(report.values["rom.cache_hits"] > 0.0);
        assert!(report.values["rom.miss_ms_p50"] > report.values["rom.hit_ms_p50"]);
    }

    #[test]
    fn tally_counts_and_keeps_the_first_failures() {
        let mut t = Tally::default();
        t.op(true, || unreachable!());
        for k in 0..20 {
            t.op(false, || format!("failure {k}"));
        }
        assert_eq!((t.attempted, t.failed, t.failures.len()), (21, 20, 8));
        let mut u = Tally::default();
        u.op(false, || "other".into());
        t.merge(u);
        assert_eq!((t.attempted, t.failed, t.failures.len()), (22, 21, 8));
    }
}
