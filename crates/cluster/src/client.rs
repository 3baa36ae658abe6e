//! `ClusterClient`: the routing front end — placement, batching,
//! admission control, retry, and deterministic merge.
//!
//! Every public query (1) takes an admission permit — when
//! `max_in_flight` queries are already running the call fails *fast*
//! with [`ClusterError::Overloaded`], never queues unboundedly and never
//! hangs; (2) partitions its work over shards by the [`ShardPlan`];
//! (3) runs one RPC per touched shard on scoped threads, each RPC
//! retrying with exponential backoff across reconnects; (4) verifies
//! every reply's plan digest; and (5) scatters band-sharded sweep
//! replies back to their original sample indices — the merge is
//! position-driven, so reply arrival order (and therefore scheduling)
//! cannot affect the result. Per-sample results are independent in the
//! underlying server, which is why re-partitioning a sweep over shards
//! is bitwise-invisible.
//!
//! [`sweep_batch`](ClusterClient::sweep_batch) /
//! [`port_batch`](ClusterClient::port_batch) coalesce many compatible
//! queries into **one frame per (shard, model) per tick**, amortizing
//! round trips — the cluster's answer to high-QPS dashboard fan-in. All
//! four frequency-domain queries go through one routine
//! (`ClusterClient::route`): a single query is a batch of one.

use crate::plan::ShardPlan;
use crate::wire::{Frame, RemoteErrorKind, Request, Response, WireError};
use bdsm_core::transfer::CMatrix;
use bdsm_linalg::Complex64;
use bdsm_obs::Counter;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Per-group coalescing state: concatenated ω samples plus, for each,
/// the (query index, position) it scatters back to.
type SliceHomes = (Vec<f64>, Vec<(usize, usize)>);

/// Router failure, typed end to end: every path out of a
/// [`ClusterClient`] query is one of these — never a hang, never a
/// panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClusterError {
    /// Admission control refused the query: `max_in_flight` queries were
    /// already running.
    Overloaded {
        /// Queries in flight at refusal time.
        in_flight: usize,
        /// The configured bound.
        limit: usize,
    },
    /// A shard stayed unreachable through every retry.
    Unavailable {
        /// The shard that could not be reached.
        shard: u32,
        /// Connection attempts made (1 + retries).
        attempts: u32,
        /// The final attempt's failure.
        last: WireError,
    },
    /// A shard answered with a protocol violation (bad frame, wrong
    /// reply kind).
    Protocol {
        /// The misbehaving shard.
        shard: u32,
        /// What was wrong.
        error: WireError,
    },
    /// A shard runs a different placement plan than this client.
    PlanMismatch {
        /// The inconsistent shard.
        shard: u32,
        /// This client's plan digest.
        expected: u64,
        /// The digest the shard stamped.
        found: u64,
    },
    /// The shard executed the request and reported a server-side error.
    Remote {
        /// The reporting shard.
        shard: u32,
        /// Coarse failure class.
        kind: RemoteErrorKind,
        /// The shard's error message.
        message: String,
    },
    /// The plan does not place the requested model.
    UnknownModel(u64),
    /// A router worker panicked; contained at the public API.
    Internal(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Overloaded { in_flight, limit } => {
                write!(
                    f,
                    "cluster overloaded: {in_flight} queries in flight (limit {limit})"
                )
            }
            ClusterError::Unavailable {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard} unavailable after {attempts} attempts: {last}"
            ),
            ClusterError::Protocol { shard, error } => {
                write!(f, "protocol violation from shard {shard}: {error}")
            }
            ClusterError::PlanMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard} runs plan {found:#018x}, client expects {expected:#018x}"
            ),
            ClusterError::Remote {
                shard,
                kind,
                message,
            } => write!(f, "shard {shard} error ({kind:?}): {message}"),
            ClusterError::UnknownModel(m) => write!(f, "model {m} not in the shard plan"),
            ClusterError::Internal(msg) => write!(f, "router internal error: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Admission bound: queries beyond this fail with
    /// [`ClusterError::Overloaded`] instead of queueing.
    pub max_in_flight: usize,
    /// Reconnect attempts after the first failure, per RPC.
    pub max_retries: u32,
    /// Backoff before retry `k` is `backoff × 2^k`.
    pub backoff: Duration,
    /// Socket connect/read/write timeout.
    pub io_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_in_flight: 256,
            max_retries: 2,
            backoff: Duration::from_millis(20),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Counters the router keeps (all relaxed atomics — see `bdsm-obs`).
#[derive(Debug, Default)]
struct ClusterMetrics {
    rpcs: Counter,
    coalesced_queries: Counter,
    retries: Counter,
    reconnects: Counter,
    overloaded: Counter,
    remote_errors: Counter,
    unavailable: Counter,
    worker_panics: Counter,
}

/// Point-in-time router counters, from [`ClusterClient::metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMetricsSnapshot {
    /// Wire round trips issued.
    pub rpcs: u64,
    /// Per-shard sub-queries folded into shared frames by the batch APIs
    /// (each frame carrying `k` sub-queries counts `k - 1` here).
    pub coalesced_queries: u64,
    /// RPC retry attempts after a failure.
    pub retries: u64,
    /// TCP reconnects (first connects excluded).
    pub reconnects: u64,
    /// Queries refused by admission control.
    pub overloaded: u64,
    /// Replies that carried a server-side error.
    pub remote_errors: u64,
    /// RPCs that exhausted every retry.
    pub unavailable: u64,
    /// Router worker panics contained at the public API.
    pub worker_panics: u64,
}

impl ClusterMetricsSnapshot {
    /// JSON object fragment (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rpcs\": {}, \"coalesced_queries\": {}, \"retries\": {}, \"reconnects\": {}, \
             \"overloaded\": {}, \"remote_errors\": {}, \"unavailable\": {}, \
             \"worker_panics\": {}}}",
            self.rpcs,
            self.coalesced_queries,
            self.retries,
            self.reconnects,
            self.overloaded,
            self.remote_errors,
            self.unavailable,
            self.worker_panics
        )
    }
}

/// One shard's connection slot: at most one pooled stream, lazily
/// (re)established under the lock.
struct ShardConn {
    addr: SocketAddr,
    stream: Mutex<Option<TcpStream>>,
    /// Whether this shard has ever connected — distinguishes a lazy
    /// first connect from a reconnect in the metrics.
    ever_connected: std::sync::atomic::AtomicBool,
}

fn lock_conn(m: &Mutex<Option<TcpStream>>) -> MutexGuard<'_, Option<TcpStream>> {
    // A panic while holding the slot can only leave a dead/absent stream,
    // which the reconnect path replaces — recovery is safe.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cluster-side counterpart of `RomServer`: same query surface,
/// served by remote shards. See the module docs for the routing
/// pipeline and [`ClusterError`] for the failure contract.
pub struct ClusterClient {
    plan: ShardPlan,
    plan_digest: u64,
    shards: Vec<ShardConn>,
    cfg: ClientConfig,
    metrics: ClusterMetrics,
    in_flight: AtomicUsize,
}

/// RAII admission permit.
struct Permit<'a>(&'a AtomicUsize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ClusterClient {
    /// A client over `plan`, shard `k` served at `addrs[k]`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Internal`] when the address list length does not
    /// match the plan's shard count. Connections are established lazily;
    /// construction does not touch the network.
    pub fn connect(
        plan: ShardPlan,
        addrs: &[SocketAddr],
        cfg: ClientConfig,
    ) -> Result<ClusterClient, ClusterError> {
        if addrs.len() != plan.num_shards() as usize {
            return Err(ClusterError::Internal(format!(
                "plan has {} shards but {} addresses were given",
                plan.num_shards(),
                addrs.len()
            )));
        }
        let plan_digest = plan.digest();
        Ok(ClusterClient {
            plan,
            plan_digest,
            shards: addrs
                .iter()
                .map(|&addr| ShardConn {
                    addr,
                    stream: Mutex::new(None),
                    ever_connected: std::sync::atomic::AtomicBool::new(false),
                })
                .collect(),
            cfg,
            metrics: ClusterMetrics::default(),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// The placement plan this client routes by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// A snapshot of the router's counters.
    pub fn metrics(&self) -> ClusterMetricsSnapshot {
        ClusterMetricsSnapshot {
            rpcs: self.metrics.rpcs.get(),
            coalesced_queries: self.metrics.coalesced_queries.get(),
            retries: self.metrics.retries.get(),
            reconnects: self.metrics.reconnects.get(),
            overloaded: self.metrics.overloaded.get(),
            remote_errors: self.metrics.remote_errors.get(),
            unavailable: self.metrics.unavailable.get(),
            worker_panics: self.metrics.worker_panics.get(),
        }
    }

    // -- admission + containment ------------------------------------------

    fn admit(&self) -> Result<Permit<'_>, ClusterError> {
        let limit = self.cfg.max_in_flight;
        let mut current = self.in_flight.load(Ordering::SeqCst);
        loop {
            if current >= limit {
                self.metrics.overloaded.inc();
                return Err(ClusterError::Overloaded {
                    in_flight: current,
                    limit,
                });
            }
            match self.in_flight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Ok(Permit(&self.in_flight)),
                Err(now) => current = now,
            }
        }
    }

    /// Contains router panics (including scoped-worker panics, which
    /// propagate on join) as [`ClusterError::Internal`].
    fn contained<T>(&self, f: impl FnOnce() -> Result<T, ClusterError>) -> Result<T, ClusterError> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(out) => out,
            Err(payload) => {
                self.metrics.worker_panics.inc();
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "panic with non-string payload".to_string()
                };
                Err(ClusterError::Internal(msg))
            }
        }
    }

    // -- transport ---------------------------------------------------------

    /// One request/response round trip to a shard, reconnecting with
    /// exponential backoff across `max_retries + 1` attempts. The pooled
    /// stream is held (and its slot locked) for the duration, so one
    /// connection carries one RPC at a time; concurrent RPCs to the same
    /// shard serialize here, concurrent RPCs to different shards don't.
    fn rpc(&self, shard: u32, request: &Request) -> Result<Response, ClusterError> {
        let _span = bdsm_obs::span!("cluster.shard_rpc", shard = shard as u64);
        let conn = &self.shards[shard as usize];
        let frame = request.to_frame();
        let attempts = self.cfg.max_retries + 1;
        let mut slot = lock_conn(&conn.stream);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.metrics.retries.inc();
                std::thread::sleep(self.cfg.backoff * (1 << (attempt - 1).min(10)));
            }
            if slot.is_none() {
                if conn.ever_connected.load(Ordering::SeqCst) {
                    self.metrics.reconnects.inc();
                }
                match TcpStream::connect_timeout(&conn.addr, self.cfg.io_timeout) {
                    Ok(stream) => {
                        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
                        let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
                        let _ = stream.set_nodelay(true);
                        conn.ever_connected.store(true, Ordering::SeqCst);
                        *slot = Some(stream);
                    }
                    Err(e) => {
                        last = Some(WireError::Io(e));
                        continue;
                    }
                }
            }
            let stream = slot.as_mut().expect("connected above");
            self.metrics.rpcs.inc();
            let result = frame
                .write_to(stream)
                .and_then(|()| Frame::read_from(stream));
            match result {
                Ok(reply_frame) => {
                    let response = Response::from_frame(&reply_frame)
                        .map_err(|error| ClusterError::Protocol { shard, error })?;
                    let stamp = response.stamp();
                    if stamp.plan_digest != self.plan_digest {
                        return Err(ClusterError::PlanMismatch {
                            shard,
                            expected: self.plan_digest,
                            found: stamp.plan_digest,
                        });
                    }
                    if let Response::Error(_, kind, message) = response {
                        self.metrics.remote_errors.inc();
                        return Err(ClusterError::Remote {
                            shard,
                            kind,
                            message,
                        });
                    }
                    return Ok(response);
                }
                // I/O mid-RPC: the stream is dead or desynced either way —
                // drop it and retry on a fresh connection.
                Err(WireError::Io(e)) => {
                    *slot = None;
                    last = Some(WireError::Io(e));
                }
                // Framing errors are not transient; retrying cannot help.
                Err(error) => {
                    *slot = None;
                    return Err(ClusterError::Protocol { shard, error });
                }
            }
        }
        self.metrics.unavailable.inc();
        Err(ClusterError::Unavailable {
            shard,
            attempts,
            last: last.unwrap_or(WireError::Corrupt("no attempt recorded")),
        })
    }

    /// Runs one RPC per (shard, request), shards in parallel on scoped
    /// threads, results in input order.
    fn fan_out(&self, work: Vec<(u32, Request)>) -> Vec<Result<Response, ClusterError>> {
        if work.len() <= 1 {
            return work
                .into_iter()
                .map(|(shard, req)| {
                    bdsm_obs::faultpoint!("cluster.router.worker");
                    self.rpc(shard, &req)
                })
                .collect();
        }
        let mut out: Vec<Option<Result<Response, ClusterError>>> =
            (0..work.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for ((shard, req), slot) in work.into_iter().zip(out.iter_mut()) {
                scope.spawn(move || {
                    // Armed fault panics this worker; the scope propagates
                    // it on join and `contained` surfaces it as
                    // `ClusterError::Internal`.
                    bdsm_obs::faultpoint!("cluster.router.worker");
                    *slot = Some(self.rpc(shard, &req));
                });
            }
        });
        out.into_iter()
            .map(|r| r.expect("scope joined every worker"))
            .collect()
    }

    // -- queries -----------------------------------------------------------

    /// Liveness probe of one shard.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors as [`ClusterError`].
    pub fn ping(&self, shard: u32) -> Result<(), ClusterError> {
        self.contained(|| {
            let _permit = self.admit()?;
            match self.rpc(shard, &Request::Ping)? {
                Response::Pong(_) => Ok(()),
                _ => Err(unexpected_reply(shard)),
            }
        })
    }

    /// A shard server's `ServerMetricsSnapshot` JSON (includes its
    /// shift-cache eviction counters).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors as [`ClusterError`].
    pub fn shard_metrics(&self, shard: u32) -> Result<String, ClusterError> {
        self.contained(|| {
            let _permit = self.admit()?;
            match self.rpc(shard, &Request::Metrics)? {
                Response::Metrics(_, json) => Ok(json),
                _ => Err(unexpected_reply(shard)),
            }
        })
    }

    /// Asks every shard to shut down gracefully (used by orderly
    /// teardown; errors from already-dead shards are reported, not
    /// retried into).
    pub fn shutdown_all(&self) -> Vec<Result<(), ClusterError>> {
        (0..self.plan.num_shards())
            .map(|shard| {
                self.contained(|| match self.rpc(shard, &Request::Shutdown)? {
                    Response::ShuttingDown(_) => Ok(()),
                    _ => Err(unexpected_reply(shard)),
                })
            })
            .collect()
    }

    /// The one routing routine behind the four frequency-domain queries:
    /// band-routes every query's samples, groups the resulting slices by
    /// `(shard, model, key)` — `key` is whatever else must match for two
    /// slices to share a frame (the port pair, for port queries) —, sends
    /// one frame per group (shards in parallel), and scatters every reply
    /// item back to its `(query, position)` home. Groups are visited in
    /// ascending key order, so the first error reported is the lowest
    /// shard's. The call is one admission unit.
    fn route<K: Ord + Copy, T>(
        &self,
        queries: &[(u64, K, &[f64])],
        request: impl Fn(u64, K, Vec<f64>) -> Request,
        unpack: impl Fn(Response) -> Option<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, ClusterError> {
        self.contained(|| {
            let _permit = self.admit()?;
            let mut groups: BTreeMap<(u32, u64, K), SliceHomes> = BTreeMap::new();
            let mut slices_routed = 0u64;
            for (qi, &(model, key, omegas)) in queries.iter().enumerate() {
                let slices = self
                    .plan
                    .partition_sweep(model, omegas)
                    .ok_or(ClusterError::UnknownModel(model))?;
                for slice in slices {
                    slices_routed += 1;
                    let (group_omegas, homes) =
                        groups.entry((slice.shard, model, key)).or_default();
                    group_omegas.extend_from_slice(&slice.omegas);
                    homes.extend(slice.indices.iter().map(|&idx| (qi, idx)));
                }
            }
            // One slice per (query, shard) after band routing; every slice
            // beyond the first in a group rode a shared frame.
            self.metrics
                .coalesced_queries
                .add(slices_routed - groups.len() as u64);
            let (work, homes): (Vec<_>, Vec<_>) = groups
                .into_iter()
                .map(|((shard, model, key), (omegas, homes))| {
                    ((shard, request(model, key, omegas)), (shard, homes))
                })
                .unzip();
            let replies = self.fan_out(work);
            let mut out: Vec<Vec<Option<T>>> = queries
                .iter()
                .map(|(_, _, omegas)| (0..omegas.len()).map(|_| None).collect())
                .collect();
            for ((shard, homes), reply) in homes.into_iter().zip(replies) {
                let items = unpack(reply?).ok_or_else(|| unexpected_reply(shard))?;
                if items.len() != homes.len() {
                    return Err(ClusterError::Protocol {
                        shard,
                        error: WireError::Corrupt("reply length does not match the request"),
                    });
                }
                for ((qi, idx), item) in homes.into_iter().zip(items) {
                    out[qi][idx] = Some(item);
                }
            }
            out.into_iter().map(collect_all).collect()
        })
    }

    /// The distributed [`RomServer::transfer_sweep`]: partitions the
    /// sweep by the plan, queries every touched shard in parallel, and
    /// reassembles replies into request ω-order. Bitwise-equal to the
    /// single-process server for any placement and any `BDSM_THREADS`.
    ///
    /// [`RomServer::transfer_sweep`]: bdsm_rom::RomServer::transfer_sweep
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on routing/transport failure or the first
    /// shard-reported error (ascending shard order).
    pub fn transfer_sweep(&self, model: u64, omegas: &[f64]) -> Result<Vec<CMatrix>, ClusterError> {
        let _span = bdsm_obs::timing_span!("cluster.route", freqs = omegas.len());
        let replies = self.route(&[(model, (), omegas)], sweep_request, sweep_reply)?;
        Ok(only(replies))
    }

    /// The distributed [`RomServer::port_response`]: band-routed like a
    /// sweep (a port sample is per-frequency), merged back to request
    /// order.
    ///
    /// [`RomServer::port_response`]: bdsm_rom::RomServer::port_response
    ///
    /// # Errors
    ///
    /// As [`transfer_sweep`](Self::transfer_sweep).
    pub fn port_response(
        &self,
        model: u64,
        out_port: usize,
        in_port: usize,
        omegas: &[f64],
    ) -> Result<Vec<Complex64>, ClusterError> {
        let _span = bdsm_obs::timing_span!("cluster.route", freqs = omegas.len());
        let query = (model, (out_port as u64, in_port as u64), omegas);
        Ok(only(self.route(&[query], port_request, port_reply)?))
    }

    /// The distributed [`RomServer::transient`]: routed whole to the
    /// model's home shard (a transient integrates the full model and
    /// cannot be split by frequency).
    ///
    /// [`RomServer::transient`]: bdsm_rom::RomServer::transient
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on routing/transport failure or a shard-reported
    /// error.
    pub fn transient(
        &self,
        model: u64,
        h: f64,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, ClusterError> {
        self.contained(|| {
            let _span = bdsm_obs::timing_span!("cluster.route", steps = inputs.len());
            let _permit = self.admit()?;
            let shard = self
                .plan
                .home_shard(model)
                .ok_or(ClusterError::UnknownModel(model))?;
            bdsm_obs::faultpoint!("cluster.router.worker");
            match self.rpc(
                shard,
                &Request::Transient {
                    model,
                    h,
                    inputs: inputs.to_vec(),
                },
            )? {
                Response::Transient(_, rows) => Ok(rows),
                _ => Err(unexpected_reply(shard)),
            }
        })
    }

    /// Batched sweeps with per-shard coalescing: all queries landing on
    /// the same (shard, model) share **one** wire frame, so a tick of
    /// `Q` dashboard queries costs at most `shards × models` round trips
    /// instead of `Q`. Results come back per query, in query order, each
    /// in its own request ω-order.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on admission/routing/transport failure or the
    /// first shard-reported error; one failure fails the batch (the
    /// batch is one admission unit).
    pub fn sweep_batch(
        &self,
        queries: &[(u64, Vec<f64>)],
    ) -> Result<Vec<Vec<CMatrix>>, ClusterError> {
        let _span = bdsm_obs::timing_span!("cluster.route_batch", queries = queries.len());
        let queries: Vec<_> = queries.iter().map(|(m, w)| (*m, (), &w[..])).collect();
        self.route(&queries, sweep_request, sweep_reply)
    }

    /// Batched port queries with the same per-(shard, model) coalescing
    /// as [`sweep_batch`](Self::sweep_batch). Queries must share a port
    /// pair to coalesce; the group key includes it.
    ///
    /// # Errors
    ///
    /// As [`sweep_batch`](Self::sweep_batch).
    pub fn port_batch(
        &self,
        queries: &[(u64, usize, usize, Vec<f64>)],
    ) -> Result<Vec<Vec<Complex64>>, ClusterError> {
        let _span = bdsm_obs::timing_span!("cluster.route_batch", queries = queries.len());
        let queries: Vec<_> = queries
            .iter()
            .map(|(m, out_port, in_port, w)| (*m, (*out_port as u64, *in_port as u64), &w[..]))
            .collect();
        self.route(&queries, port_request, port_reply)
    }
}

fn sweep_request(model: u64, (): (), omegas: Vec<f64>) -> Request {
    Request::Sweep { model, omegas }
}

fn sweep_reply(response: Response) -> Option<Vec<CMatrix>> {
    match response {
        Response::Sweep(_, mats) => Some(mats),
        _ => None,
    }
}

fn port_request(model: u64, (out_port, in_port): (u64, u64), omegas: Vec<f64>) -> Request {
    Request::Port {
        model,
        out_port,
        in_port,
        omegas,
    }
}

fn port_reply(response: Response) -> Option<Vec<Complex64>> {
    match response {
        Response::Port(_, samples) => Some(samples),
        _ => None,
    }
}

/// The result of a batch of one.
fn only<T>(mut replies: Vec<Vec<T>>) -> Vec<T> {
    replies.pop().expect("route answers every query")
}

fn unexpected_reply(shard: u32) -> ClusterError {
    ClusterError::Protocol {
        shard,
        error: WireError::Corrupt("reply kind does not match the request"),
    }
}

/// Every position must have been filled by exactly one shard slice —
/// guaranteed by `partition_sweep`'s index partition; a hole would be a
/// router bug and surfaces as `Internal`, not a panic.
fn collect_all<T>(out: Vec<Option<T>>) -> Result<Vec<T>, ClusterError> {
    out.into_iter()
        .map(|x| x.ok_or_else(|| ClusterError::Internal("unfilled merge position".to_string())))
        .collect()
}
