//! The concurrent ROM query layer: load artifacts once, answer many
//! frequency- and time-domain queries cheaply.
//!
//! [`RomServer`] is a thread-safe handle over one or more loaded
//! [`RomArtifact`]s. Per model it keeps a **shift cache**: the dense
//! complex LU of `G_r + sC_r` at each queried shift, so a 64-frequency
//! sweep factors each frequency once ever, and repeated batches at the
//! same operating points are pure triangular solves. Batched queries fan
//! out over the [`bdsm_core::par`] substrate and inherit its determinism
//! contract: results are **bitwise-identical for any `BDSM_THREADS`**, and
//! — because cached and fresh factorizations run the very same
//! [`eval_transfer_factored`] code path — bitwise-identical to evaluating
//! the freshly built model.
//!
//! Loading (`&mut self`) is separated from serving (`&self`): share the
//! server behind an `Arc` and any number of threads can query it
//! concurrently while each batch also parallelizes internally.
//!
//! # Certified envelopes and failure containment
//!
//! Every query is validated up front (finite frequencies, positive finite
//! steps, non-empty batches) and checked against the model's **certified
//! envelope** — the frequency span its artifact certificate covers (see
//! `bdsm_core::certify`) and the matching transient-step floor. The
//! server-wide [`EnvelopePolicy`] decides what happens outside it:
//! refuse ([`QueryError::OutsideEnvelope`]), serve but count a flag (the
//! default), or ignore. Models whose certificate is `Unknown` (e.g. v2
//! artifacts) have no envelope and are never checked. Additionally, no
//! panic crosses the public query API: panics (including worker panics
//! inside a fan-out) are caught at the boundary and surface as
//! [`RomError::Internal`], counted in [`RomServer::metrics`].

use crate::artifact::{RomArtifact, RomError};
use bdsm_core::par;
use bdsm_core::transfer::{eval_transfer_factored, CMatrix, ZLu};
use bdsm_linalg::Complex64;
use bdsm_obs::{CacheStats, CacheStatsSnapshot, Counter, Histogram, HistogramSnapshot, ObsLevel};
use bdsm_sim::TransientSolver;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why a query was rejected before any numerical work, carried by
/// [`RomError::Query`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QueryError {
    /// A batched query carried no work items.
    EmptyBatch,
    /// A requested frequency was NaN or infinite.
    NonFiniteFrequency {
        /// The offending value.
        value: f64,
    },
    /// A transient step was NaN or infinite.
    NonFiniteStep {
        /// The offending value.
        value: f64,
    },
    /// A transient step was zero or negative.
    NonPositiveStep {
        /// The offending value.
        value: f64,
    },
    /// A port index exceeded the model's port count.
    PortOutOfRange {
        /// `"input"` or `"output"`.
        kind: &'static str,
        /// The requested port.
        port: usize,
        /// Ports the model actually has.
        available: usize,
    },
    /// The query left the model's certified envelope and the server runs
    /// under [`EnvelopePolicy::Strict`].
    OutsideEnvelope {
        /// First offending value (a frequency, or a transient step).
        value: f64,
        /// Certified lower bound.
        lo: f64,
        /// Certified upper bound.
        hi: f64,
        /// `"frequency"` or `"transient step"`.
        domain: &'static str,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyBatch => write!(f, "empty batch"),
            QueryError::NonFiniteFrequency { value } => {
                write!(f, "non-finite frequency {value}")
            }
            QueryError::NonFiniteStep { value } => write!(f, "non-finite transient step {value}"),
            QueryError::NonPositiveStep { value } => {
                write!(f, "non-positive transient step {value}")
            }
            QueryError::PortOutOfRange {
                kind,
                port,
                available,
            } => write!(f, "{kind} port {port} out of range (model has {available})"),
            QueryError::OutsideEnvelope {
                value,
                lo,
                hi,
                domain,
            } => write!(
                f,
                "{domain} {value} outside the certified envelope [{lo}, {hi}]"
            ),
        }
    }
}

/// What the server does with a query outside a model's certified
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnvelopePolicy {
    /// Refuse with [`QueryError::OutsideEnvelope`]; the refusal is
    /// counted in [`RomServer::metrics`].
    Strict,
    /// Serve the query but count each out-of-envelope sample as a flag in
    /// [`RomServer::metrics`] — the default: graceful degradation with an
    /// explicit warning signal.
    #[default]
    Flag,
    /// Serve silently, pre-certificate behaviour.
    Ignore,
}

/// Handle to one loaded model inside a [`RomServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RomId(usize);

impl RomId {
    /// The raw slot index (stable for the server's lifetime).
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for RomId {
    /// Compact label (`rom#3`) for router logs and shard metrics.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rom#{}", self.0)
    }
}

/// Locks a cache mutex, recovering from poisoning: a panicked query
/// thread must not turn every later query on the model into a panic.
/// Recovery is safe because the cache only ever holds complete,
/// immutable entries — values are fully built before insertion, so no
/// half-written state can be observed.
fn lock_cache<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-server observability: shift-cache accounting plus the per-sample
/// query latency distribution.
///
/// Cache counters are always on (two relaxed atomic increments next to a
/// mutex-guarded map lookup — noise); the latency histogram records only
/// at `ObsLevel::Timings` and above, because it needs a clock read per
/// sample.
#[derive(Debug, Default)]
struct ServerMetrics {
    cache: CacheStats,
    query_latency_us: Histogram,
    /// Queries refused under [`EnvelopePolicy::Strict`] (one per refused
    /// call).
    envelope_refusals: Counter,
    /// Out-of-envelope samples served under [`EnvelopePolicy::Flag`]
    /// (one per sample).
    envelope_flags: Counter,
    /// Panics contained at the public API boundary.
    panics_recovered: Counter,
}

/// Point-in-time copy of a server's metrics, from [`RomServer::metrics`].
///
/// Invariants (exact, by construction): `cache.hits + cache.misses` is
/// the total number of per-frequency samples served, `cache.misses ==
/// cache.inserts` (a cold-shift race loser counts as a hit, since the
/// winner's entry served it), and `cache.inserts - cache.evictions`
/// equals the sum of [`RomServer::cached_shifts`] over all loaded
/// models. With the default unbounded cache `cache.evictions` is zero,
/// so the PR-7 contract `misses == inserts == cached_shifts` holds
/// verbatim; under a [`RomServer::set_cache_capacity`] bound the general
/// form is the exact one.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerMetricsSnapshot {
    /// Shift-cache hits/misses/inserts across all models.
    pub cache: CacheStatsSnapshot,
    /// Per-sample query latency (µs); empty below `ObsLevel::Timings`.
    pub latency_us: HistogramSnapshot,
    /// Queries refused for leaving the certified envelope
    /// ([`EnvelopePolicy::Strict`]; one per refused call).
    pub envelope_refusals: u64,
    /// Out-of-envelope samples served with a warning
    /// ([`EnvelopePolicy::Flag`]; one per sample).
    pub envelope_flags: u64,
    /// Panics contained at the public API boundary (each surfaced as
    /// [`RomError::Internal`]).
    pub panics_recovered: u64,
}

impl ServerMetricsSnapshot {
    /// Total per-frequency samples served.
    pub fn queries(&self) -> u64 {
        self.cache.queries()
    }

    /// Shift-cache hit rate over all samples served.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// JSON object fragment (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cache\": {{\"hits\": {}, \"misses\": {}, \"inserts\": {}, \"evictions\": {}, \
             \"hit_rate\": {}}}, \
             \"envelope\": {{\"refusals\": {}, \"flags\": {}}}, \"panics_recovered\": {}, \
             \"latency\": {}}}",
            self.cache.hits,
            self.cache.misses,
            self.cache.inserts,
            self.cache.evictions,
            self.hit_rate(),
            self.envelope_refusals,
            self.envelope_flags,
            self.panics_recovered,
            self.latency_us.to_json()
        )
    }
}

/// Independently locked segments of a model's shift cache: a hot
/// multi-threaded sweep spreads its lookups over eight mutexes instead of
/// serializing on one.
const CACHE_SEGMENTS: usize = 8;

/// One cached factorization plus its LRU stamp. Stamps come from the
/// owning segment's monotonic clock — bumped on every touch, so they are
/// unique within a segment and the eviction victim is unambiguous.
struct CacheSlot {
    lu: Arc<ZLu>,
    last_used: u64,
}

#[derive(Default)]
struct CacheSegment {
    map: HashMap<(u64, u64), CacheSlot>,
    clock: u64,
}

impl CacheSegment {
    /// Evicts least-recently-used slots until at most `cap - room` remain,
    /// counting each displaced entry.
    fn evict_down_to(&mut self, cap: usize, room: usize, stats: &CacheStats) {
        while self.map.len() + room > cap {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
                .expect("segment over capacity is nonempty");
            self.map.remove(&victim);
            stats.evictions.inc();
        }
    }
}

/// A model's per-shift factorization cache: [`CACHE_SEGMENTS`]
/// independently locked LRU segments, keyed by the shift's bit pattern
/// (so `jω` and any complex shift cache alike). A capacity bound is
/// enforced per segment (the server-wide knob divided over segments,
/// rounded up), so the live-entry count never exceeds
/// `CACHE_SEGMENTS × ⌈capacity / CACHE_SEGMENTS⌉`. Eviction only ever
/// discards a completed factorization — re-deriving it later is pure and
/// bitwise-identical, so bounded caches change wall-clock, never bytes.
struct ShardedShiftCache {
    segments: [Mutex<CacheSegment>; CACHE_SEGMENTS],
    /// Max entries per segment; `None` is unbounded (the default).
    per_segment_cap: Option<usize>,
}

impl ShardedShiftCache {
    fn new(capacity: Option<usize>) -> Self {
        ShardedShiftCache {
            segments: std::array::from_fn(|_| Mutex::new(CacheSegment::default())),
            per_segment_cap: capacity.map(per_segment_cap),
        }
    }

    /// Which segment owns a shift key (splitmix-style bit mix, so nearby
    /// frequencies spread instead of clustering on one lock).
    fn segment_of(key: (u64, u64)) -> usize {
        let mut h = key.0 ^ key.1.rotate_left(32);
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        (h % CACHE_SEGMENTS as u64) as usize
    }

    /// Distinct shifts currently cached across all segments.
    fn len(&self) -> usize {
        self.segments.iter().map(|s| lock_cache(s).map.len()).sum()
    }

    /// Re-bounds the cache, trimming oversized segments immediately (each
    /// trimmed entry is counted as an eviction).
    fn set_capacity(&mut self, capacity: Option<usize>, stats: &CacheStats) {
        self.per_segment_cap = capacity.map(per_segment_cap);
        if let Some(cap) = self.per_segment_cap {
            for seg in &self.segments {
                lock_cache(seg).evict_down_to(cap, 0, stats);
            }
        }
    }
}

/// The per-segment share of a server-wide capacity knob: rounded up, and
/// never below one entry per segment.
fn per_segment_cap(capacity: usize) -> usize {
    capacity.div_ceil(CACHE_SEGMENTS).max(1)
}

/// One loaded artifact plus its sharded per-shift factorization cache.
struct ServedRom {
    artifact: RomArtifact,
    cache: ShardedShiftCache,
}

impl ServedRom {
    /// The cached factorization of `G_r + sC_r`, computing and inserting
    /// it on first use — a double-checked insert that **never holds a
    /// cache lock across the factorization**, so one slow cold shift
    /// cannot serialize every concurrent query on the model. Two workers
    /// racing on the same fresh shift both factor — identical, pure
    /// results — and the first insert wins; the loser is accounted as a
    /// hit, which keeps `misses == inserts` exact. A full segment evicts
    /// its least-recently-used entry before inserting.
    fn factored(&self, s: Complex64, stats: &CacheStats) -> Result<Arc<ZLu>, RomError> {
        let key = (s.re.to_bits(), s.im.to_bits());
        let segment = &self.cache.segments[ShardedShiftCache::segment_of(key)];
        {
            let mut guard = lock_cache(segment);
            // Fault site while the lock is held: an injected panic here
            // poisons the segment mutex, which is exactly the condition
            // `lock_cache`'s recovery (and its tests) exercise.
            bdsm_obs::faultpoint!("rom.cache.locked");
            guard.clock += 1;
            let tick = guard.clock;
            if let Some(slot) = guard.map.get_mut(&key) {
                slot.last_used = tick;
                stats.hits.inc();
                return Ok(Arc::clone(&slot.lu));
            }
        }
        let lu = Arc::new(ZLu::factor_shifted(&self.artifact.g, &self.artifact.c, s)?);
        let mut guard = lock_cache(segment);
        guard.clock += 1;
        let tick = guard.clock;
        if let Some(slot) = guard.map.get_mut(&key) {
            slot.last_used = tick;
            stats.hits.inc();
            return Ok(Arc::clone(&slot.lu));
        }
        stats.misses.inc();
        stats.inserts.inc();
        if let Some(cap) = self.cache.per_segment_cap {
            guard.evict_down_to(cap, 1, stats);
        }
        guard.map.insert(
            key,
            CacheSlot {
                lu: Arc::clone(&lu),
                last_used: tick,
            },
        );
        Ok(lu)
    }

    /// One transfer sample `H(s)` through the cache — the exact
    /// [`eval_transfer_factored`] path a fresh evaluation takes.
    fn eval(&self, s: Complex64, metrics: &ServerMetrics) -> Result<CMatrix, RomError> {
        let _span = bdsm_obs::span!("serve.query", re = s.re, omega = s.im);
        let t = bdsm_obs::enabled(ObsLevel::Timings).then(Instant::now);
        let lu = self.factored(s, &metrics.cache)?;
        let out = eval_transfer_factored(&lu, &self.artifact.b, &self.artifact.l)?;
        if let Some(t) = t {
            metrics.query_latency_us.record_duration(t.elapsed());
        }
        Ok(out)
    }
}

/// Thread-safe, multi-model ROM query server. See the module docs for the
/// caching and determinism contract.
#[derive(Default)]
pub struct RomServer {
    models: Vec<ServedRom>,
    metrics: ServerMetrics,
    envelope_policy: EnvelopePolicy,
    /// Server-wide per-model shift-cache bound; `None` is unbounded.
    cache_capacity: Option<usize>,
}

impl RomServer {
    /// An empty server; load models with
    /// [`load_artifact`](Self::load_artifact) / [`load_file`](Self::load_file).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty server whose per-model shift caches hold at most
    /// `capacity` factorizations each, evicting least-recently-used
    /// entries beyond that. Eviction trades recomputation for memory and
    /// never changes served bytes. The bound is enforced per lock segment
    /// (`⌈capacity / 8⌉` each), so up to seven entries of rounding slack
    /// may remain live above `capacity`.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        RomServer {
            cache_capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// The per-model shift-cache bound; `None` is unbounded.
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache_capacity
    }

    /// Re-bounds every model's shift cache (and future loads). Shrinking
    /// below the live entry count trims least-recently-used entries
    /// immediately, counting each as an eviction in
    /// [`metrics`](Self::metrics).
    pub fn set_cache_capacity(&mut self, capacity: Option<usize>) {
        self.cache_capacity = capacity;
        for model in &mut self.models {
            model.cache.set_capacity(capacity, &self.metrics.cache);
        }
    }

    /// Registers an in-memory artifact, returning its handle.
    pub fn load_artifact(&mut self, artifact: RomArtifact) -> RomId {
        self.models.push(ServedRom {
            artifact,
            cache: ShardedShiftCache::new(self.cache_capacity),
        });
        RomId(self.models.len() - 1)
    }

    /// Loads a binary artifact file and registers it.
    ///
    /// # Errors
    ///
    /// Propagates [`RomArtifact::load`] failures; I/O failures carry the
    /// offending path in their message.
    pub fn load_file(&mut self, path: impl AsRef<Path>) -> Result<RomId, RomError> {
        let path = path.as_ref();
        let artifact = RomArtifact::load(path).map_err(|e| match e {
            RomError::Io(io) => RomError::Io(std::io::Error::new(
                io.kind(),
                format!("{}: {io}", path.display()),
            )),
            other => other,
        })?;
        Ok(self.load_artifact(artifact))
    }

    /// Number of loaded models.
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// The active out-of-envelope policy.
    pub fn envelope_policy(&self) -> EnvelopePolicy {
        self.envelope_policy
    }

    /// Sets the out-of-envelope policy for every subsequent query
    /// (server-wide; the default is [`EnvelopePolicy::Flag`]).
    pub fn set_envelope_policy(&mut self, policy: EnvelopePolicy) {
        self.envelope_policy = policy;
    }

    /// The artifact behind a handle.
    ///
    /// # Errors
    ///
    /// [`RomError::UnknownModel`] for a stale or foreign id.
    pub fn artifact(&self, id: RomId) -> Result<&RomArtifact, RomError> {
        self.models
            .get(id.0)
            .map(|m| &m.artifact)
            .ok_or(RomError::UnknownModel(id.0))
    }

    fn served(&self, id: RomId) -> Result<&ServedRom, RomError> {
        self.models.get(id.0).ok_or(RomError::UnknownModel(id.0))
    }

    /// Distinct shifts currently cached for a model.
    ///
    /// # Errors
    ///
    /// [`RomError::UnknownModel`] for a stale or foreign id.
    pub fn cached_shifts(&self, id: RomId) -> Result<usize, RomError> {
        Ok(self.served(id)?.cache.len())
    }

    /// A snapshot of this server's observability counters: shift-cache
    /// hits/misses/inserts across all models and the per-sample query
    /// latency histogram. See [`ServerMetricsSnapshot`] for the exact
    /// accounting invariants.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            cache: self.metrics.cache.snapshot(),
            latency_us: self.metrics.query_latency_us.snapshot(),
            envelope_refusals: self.metrics.envelope_refusals.get(),
            envelope_flags: self.metrics.envelope_flags.get(),
            panics_recovered: self.metrics.panics_recovered.get(),
        }
    }

    /// Contains any panic escaping a query body: the public API surfaces
    /// it as [`RomError::Internal`] instead of unwinding into the caller.
    /// Sound to recover from because query bodies only read the immutable
    /// artifact and the poison-tolerant shift cache — there is no
    /// half-mutated server state a panic could leave behind.
    fn contained<T>(&self, f: impl FnOnce() -> Result<T, RomError>) -> Result<T, RomError> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(out) => out,
            Err(payload) => {
                self.metrics.panics_recovered.inc();
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "panic with non-string payload".to_string()
                };
                Err(RomError::Internal(msg))
            }
        }
    }

    /// Validates a frequency batch and applies the envelope policy.
    /// Refusals count once per call; flags count once per offending
    /// sample.
    fn admit_frequencies(&self, a: &RomArtifact, omegas: &[f64]) -> Result<(), RomError> {
        for &w in omegas {
            if !w.is_finite() {
                return Err(RomError::Query(QueryError::NonFiniteFrequency { value: w }));
            }
        }
        if self.envelope_policy == EnvelopePolicy::Ignore {
            return Ok(());
        }
        let Some((lo, hi)) = a.provenance.certificate.frequency_envelope() else {
            return Ok(()); // no certificate evidence: nothing to enforce
        };
        let mut outside = 0u64;
        let mut first = 0.0;
        for &w in omegas {
            if w < lo || w > hi {
                if outside == 0 {
                    first = w;
                }
                outside += 1;
            }
        }
        if outside == 0 {
            return Ok(());
        }
        match self.envelope_policy {
            EnvelopePolicy::Strict => {
                self.metrics.envelope_refusals.inc();
                Err(RomError::Query(QueryError::OutsideEnvelope {
                    value: first,
                    lo,
                    hi,
                    domain: "frequency",
                }))
            }
            EnvelopePolicy::Flag => {
                self.metrics.envelope_flags.add(outside);
                Ok(())
            }
            EnvelopePolicy::Ignore => unreachable!("handled above"),
        }
    }

    /// Validates a transient step and applies the envelope policy: a
    /// backward-Euler step below the certified floor `1/ω_hi` queries the
    /// model above its certified band.
    fn admit_step(&self, a: &RomArtifact, h: f64) -> Result<(), RomError> {
        if !h.is_finite() {
            return Err(RomError::Query(QueryError::NonFiniteStep { value: h }));
        }
        if h <= 0.0 {
            return Err(RomError::Query(QueryError::NonPositiveStep { value: h }));
        }
        if self.envelope_policy == EnvelopePolicy::Ignore {
            return Ok(());
        }
        let Some(h_min) = a.provenance.certificate.min_transient_step() else {
            return Ok(());
        };
        if h >= h_min {
            return Ok(());
        }
        match self.envelope_policy {
            EnvelopePolicy::Strict => {
                self.metrics.envelope_refusals.inc();
                Err(RomError::Query(QueryError::OutsideEnvelope {
                    value: h,
                    lo: h_min,
                    hi: f64::INFINITY,
                    domain: "transient step",
                }))
            }
            EnvelopePolicy::Flag => {
                self.metrics.envelope_flags.inc();
                Ok(())
            }
            EnvelopePolicy::Ignore => unreachable!("handled above"),
        }
    }

    /// Evaluates the full `p × m` transfer matrix `H(jω)` at every listed
    /// angular frequency, fanning the samples out over workers. First
    /// contact with a frequency factors and caches it; subsequent batches
    /// reuse the factors.
    ///
    /// # Errors
    ///
    /// [`RomError::UnknownModel`], [`RomError::Query`] for non-finite or
    /// (under [`EnvelopePolicy::Strict`]) out-of-envelope frequencies, or
    /// the first per-frequency failure in frequency order (e.g. a query
    /// hitting a pole).
    pub fn transfer_sweep(&self, id: RomId, omegas: &[f64]) -> Result<Vec<CMatrix>, RomError> {
        self.contained(|| {
            let _span = bdsm_obs::timing_span!("serve.sweep", freqs = omegas.len());
            let served = self.served(id)?;
            self.admit_frequencies(&served.artifact, omegas)?;
            let metrics = &self.metrics;
            par::parallel_map(omegas, |_, &w| served.eval(Complex64::jomega(w), metrics))
                .into_iter()
                .collect()
        })
    }

    /// One output/input port pair's response `H[out, in](jω)` over a
    /// frequency batch — the narrow query shape of dashboard-style
    /// consumers. Runs on the same factorization cache as
    /// [`transfer_sweep`](Self::transfer_sweep) but solves only the
    /// queried input column and contracts only the queried output row,
    /// so a sample costs one triangular solve instead of `m`. The entry
    /// is computed with exactly the operations
    /// [`transfer_sweep`](Self::transfer_sweep) would perform for it, so
    /// the two queries agree bitwise.
    ///
    /// # Errors
    ///
    /// [`RomError::Query`] for an out-of-range port, otherwise as
    /// [`transfer_sweep`](Self::transfer_sweep).
    pub fn port_response(
        &self,
        id: RomId,
        out_port: usize,
        in_port: usize,
        omegas: &[f64],
    ) -> Result<Vec<Complex64>, RomError> {
        self.contained(|| {
            let _span = bdsm_obs::timing_span!("serve.port", freqs = omegas.len());
            let served = self.served(id)?;
            let a = &served.artifact;
            if out_port >= a.num_outputs() {
                return Err(RomError::Query(QueryError::PortOutOfRange {
                    kind: "output",
                    port: out_port,
                    available: a.num_outputs(),
                }));
            }
            if in_port >= a.num_inputs() {
                return Err(RomError::Query(QueryError::PortOutOfRange {
                    kind: "input",
                    port: in_port,
                    available: a.num_inputs(),
                }));
            }
            self.admit_frequencies(a, omegas)?;
            let b_col = a.b.col(in_port);
            let metrics = &self.metrics;
            par::parallel_map(omegas, |_, &w| -> Result<Complex64, RomError> {
                let s = Complex64::jomega(w);
                let _span = bdsm_obs::span!("serve.query", re = s.re, omega = s.im);
                let t = bdsm_obs::enabled(ObsLevel::Timings).then(Instant::now);
                let lu = served.factored(s, &metrics.cache)?;
                // One column solve + one row contraction, in the same
                // operation order as `eval_transfer_factored`'s (i, j) entry.
                let x = lu.solve_real(&b_col)?;
                let mut acc = Complex64::ZERO;
                for (lv, xv) in a.l.row(out_port).iter().zip(&x) {
                    acc += *xv * *lv;
                }
                if let Some(t) = t {
                    metrics.query_latency_us.record_duration(t.elapsed());
                }
                Ok(acc)
            })
            .into_iter()
            .collect()
        })
    }

    /// Runs one backward-Euler transient over the served ROM: `inputs`
    /// holds the input vector `u⁺` of every step. The left-hand side is
    /// factored once per call.
    ///
    /// # Errors
    ///
    /// [`RomError::UnknownModel`] / [`RomError::Query`] on a bad request,
    /// [`RomError::Linalg`] when the step system cannot be factored or an
    /// input has the wrong width.
    pub fn transient(
        &self,
        id: RomId,
        h: f64,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, RomError> {
        self.contained(|| {
            let _span = bdsm_obs::timing_span!("serve.transient", steps = inputs.len());
            let a = self.artifact(id)?;
            self.admit_step(a, h)?;
            let mut solver = TransientSolver::new(&a.g, &a.c, &a.b, &a.l, h)?;
            Ok(solver.run_series(inputs)?)
        })
    }

    /// A batch of independent transients (one input waveform each), fanned
    /// out over workers. The step system is factored **once** and each
    /// worker drives a reset clone, so a batch of `W` waveforms costs one
    /// factorization plus `W` triangular-solve streams.
    ///
    /// # Errors
    ///
    /// Same as [`transient`](Self::transient); the first failing waveform
    /// (in batch order) is reported.
    pub fn transient_batch(
        &self,
        id: RomId,
        h: f64,
        waveforms: &[Vec<Vec<f64>>],
    ) -> Result<Vec<Vec<Vec<f64>>>, RomError> {
        self.contained(|| {
            let _span =
                bdsm_obs::timing_span!("serve.transient_batch", waveforms = waveforms.len());
            let a = self.artifact(id)?;
            if waveforms.is_empty() {
                return Err(RomError::Query(QueryError::EmptyBatch));
            }
            self.admit_step(a, h)?;
            let proto = TransientSolver::new(&a.g, &a.c, &a.b, &a.l, h)?;
            par::parallel_map_with(
                waveforms,
                || proto.clone(),
                |solver, _, w| {
                    solver.reset();
                    solver.run_series(w).map_err(RomError::from)
                },
            )
            .into_iter()
            .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reducer;
    use bdsm_core::synth::rc_grid;
    use bdsm_core::transfer::eval_transfer;

    fn grid_artifact() -> (bdsm_core::ReducedModel, RomArtifact) {
        let net = rc_grid(6, 8, 1.0, 1e-3, 2.0);
        let reducer = Reducer::builder()
            .blocks(3)
            .jomega_shifts(&[5.0e2, 2.0e3])
            .build()
            .unwrap();
        let (rm, report, _) = reducer.reduce_traced(&net).unwrap();
        let artifact = RomArtifact::from_model(&rm, Some(&report));
        (rm, artifact)
    }

    #[test]
    fn sweep_matches_fresh_model_bitwise_and_caches() {
        let (rm, artifact) = grid_artifact();
        let mut server = RomServer::new();
        let id = server.load_artifact(artifact);
        let omegas: Vec<f64> = (0..16).map(|i| 40.0 * 1.5_f64.powi(i)).collect();
        let sweep = server.transfer_sweep(id, &omegas).unwrap();
        for (k, &w) in omegas.iter().enumerate() {
            let fresh = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, Complex64::jomega(w)).unwrap();
            assert_eq!(sweep[k], fresh, "served sample at ω={w} differs");
        }
        assert_eq!(server.cached_shifts(id).unwrap(), omegas.len());
        // A second batch reuses every factorization and reproduces itself.
        let again = server.transfer_sweep(id, &omegas).unwrap();
        assert_eq!(again, sweep);
        assert_eq!(server.cached_shifts(id).unwrap(), omegas.len());
        // Cache accounting is exact: every sample is a hit or a miss, and
        // misses == inserts == distinct cached shifts.
        let m = server.metrics();
        assert_eq!(m.queries(), 2 * omegas.len() as u64);
        assert_eq!(m.cache.misses, omegas.len() as u64);
        assert_eq!(m.cache.inserts, m.cache.misses);
        assert_eq!(m.cache.hits, omegas.len() as u64);
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn port_response_extracts_the_sweep_entry() {
        let (_, artifact) = grid_artifact();
        let mut server = RomServer::new();
        let id = server.load_artifact(artifact);
        let omegas = [100.0, 1000.0];
        let sweep = server.transfer_sweep(id, &omegas).unwrap();
        let h01 = server.port_response(id, 0, 1, &omegas).unwrap();
        for k in 0..omegas.len() {
            assert_eq!(h01[k], sweep[k][(0, 1)]);
        }
        assert!(matches!(
            server.port_response(id, 9, 0, &omegas),
            Err(RomError::Query(_))
        ));
    }

    #[test]
    fn transient_matches_direct_solver_and_batches() {
        let (rm, artifact) = grid_artifact();
        let mut server = RomServer::new();
        let id = server.load_artifact(artifact);
        let h = 1e-4;
        let m = rm.b.ncols();
        let wave: Vec<Vec<f64>> = (0..50).map(|_| vec![1.0; m]).collect();
        let served = server.transient(id, h, &wave).unwrap();
        let mut direct = TransientSolver::new(&rm.g, &rm.c, &rm.b, &rm.l, h).unwrap();
        assert_eq!(served, direct.run_series(&wave).unwrap());
        // Batch: every waveform equals its standalone run.
        let wave2: Vec<Vec<f64>> = (0..50).map(|s| vec![(0.2 * s as f64).sin(); m]).collect();
        let batch = server
            .transient_batch(id, h, &[wave.clone(), wave2.clone()])
            .unwrap();
        assert_eq!(batch[0], served);
        assert_eq!(batch[1], server.transient(id, h, &wave2).unwrap());
        assert!(matches!(
            server.transient_batch(id, h, &[]),
            Err(RomError::Query(_))
        ));
    }

    #[test]
    fn bounded_cache_evicts_lru_and_accounts_exactly() {
        let (_, artifact) = grid_artifact();
        // Capacity 8 over 8 segments = 1 slot per segment: every segment
        // collision evicts, so eviction pressure is maximal.
        let mut server = RomServer::with_cache_capacity(8);
        assert_eq!(server.cache_capacity(), Some(8));
        let id = server.load_artifact(artifact);
        let omegas: Vec<f64> = (0..32).map(|i| 40.0 * 1.3_f64.powi(i)).collect();
        let sweep = server.transfer_sweep(id, &omegas).unwrap();
        let m = server.metrics();
        // Every sample was cold → a miss and an insert; the bound only
        // changes what stays resident, never the arithmetic.
        assert_eq!(m.cache.misses, omegas.len() as u64);
        assert_eq!(m.cache.inserts, m.cache.misses);
        assert!(
            m.cache.evictions > 0,
            "32 shifts through 8 slots must evict"
        );
        // The generalized PR-7 contract: live entries == inserts - evictions.
        let live = server.cached_shifts(id).unwrap() as u64;
        assert_eq!(live, m.cache.inserts - m.cache.evictions);
        assert!(live <= 8, "cache exceeded its bound: {live}");
        // Evicted shifts refactor to bitwise-identical results.
        let again = server.transfer_sweep(id, &omegas).unwrap();
        assert_eq!(again, sweep);
    }

    #[test]
    fn warm_entries_survive_eviction_pressure() {
        let (_, artifact) = grid_artifact();
        let mut server = RomServer::new();
        let id = server.load_artifact(artifact);
        let omegas: Vec<f64> = (0..24).map(|i| 40.0 * 1.4_f64.powi(i)).collect();
        server.transfer_sweep(id, &omegas).unwrap();
        assert_eq!(server.cached_shifts(id).unwrap(), omegas.len());
        // Keep the first four hot, then shrink: the hot set was touched
        // after everything else, so LRU trimming must spare it.
        let hot = &omegas[..4];
        server.transfer_sweep(id, hot).unwrap();
        server.set_cache_capacity(Some(8));
        let m = server.metrics();
        assert_eq!(
            server.cached_shifts(id).unwrap() as u64,
            m.cache.inserts - m.cache.evictions
        );
        let before = server.metrics();
        let warm = server.transfer_sweep(id, hot).unwrap();
        let after = server.metrics();
        assert_eq!(
            after.cache.misses, before.cache.misses,
            "hot shifts were evicted despite being most recently used"
        );
        assert_eq!(after.cache.hits, before.cache.hits + hot.len() as u64);
        assert!(!warm.is_empty());
    }

    #[test]
    fn unbounded_cache_never_evicts_and_capacity_roundtrips() {
        let (_, artifact) = grid_artifact();
        let mut server = RomServer::new();
        assert_eq!(server.cache_capacity(), None);
        let id = server.load_artifact(artifact);
        let omegas: Vec<f64> = (0..16).map(|i| 40.0 * 1.5_f64.powi(i)).collect();
        server.transfer_sweep(id, &omegas).unwrap();
        let m = server.metrics();
        assert_eq!(m.cache.evictions, 0);
        assert_eq!(m.cache.misses, m.cache.inserts);
        assert_eq!(m.cache.inserts, server.cached_shifts(id).unwrap() as u64);
        // Lifting the bound back off keeps everything resident.
        server.set_cache_capacity(Some(64));
        server.set_cache_capacity(None);
        assert_eq!(server.cache_capacity(), None);
        assert_eq!(server.metrics().cache.evictions, 0);
        // JSON dump carries the eviction counter.
        assert!(server.metrics().to_json().contains("\"evictions\": 0"));
    }

    #[test]
    fn rom_id_displays_compactly() {
        let (_, artifact) = grid_artifact();
        let mut server = RomServer::new();
        let id = server.load_artifact(artifact);
        assert_eq!(format!("{id}"), "rom#0");
    }

    #[test]
    fn load_file_error_names_the_path() {
        let mut server = RomServer::new();
        let err = server
            .load_file("/nonexistent/bdsm/missing.rom")
            .unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("/nonexistent/bdsm/missing.rom"),
            "I/O error lost its path: {msg}"
        );
    }

    #[test]
    fn unknown_model_is_typed() {
        let server = RomServer::new();
        assert!(matches!(
            server.transfer_sweep(RomId(3), &[1.0]),
            Err(RomError::UnknownModel(3))
        ));
        let (_, artifact) = grid_artifact();
        let mut server = RomServer::new();
        let id = server.load_artifact(artifact);
        assert_eq!(id.index(), 0);
        assert_eq!(server.num_models(), 1);
        assert!(server.artifact(id).is_ok());
    }
}
