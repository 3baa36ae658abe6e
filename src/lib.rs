//! # BDSM — block-diagonal structured model reduction for power grids
//!
//! The lifecycle this crate serves is **build once → save → serve**: a
//! block-diagonal ROM is expensive to construct and nearly free to query,
//! so the public API ([`rom`]) treats the reduced model as a persistable,
//! servable artifact:
//!
//! | step | type | what it does |
//! |------|------|--------------|
//! | *build* | [`rom::Reducer`] | typed builder over the staged engine; configuration validated at `build()` time ([`rom::BuildError`]) |
//! | *save/load* | [`rom::RomArtifact`] | versioned binary serialization (magic + format version + checksum), **bitwise-exact** round-trips, JSON debug dump, provenance (engine version, shifts, residual trajectory, and the [`rom::Certificate`]; format v8, each reduced matrix dense or compressed-row, whichever is smaller; older versions are `UnsupportedVersion`) |
//! | *serve* | [`rom::RomServer`] | thread-safe multi-model handle; caches per-shift factorizations in a sharded-lock, optionally capacity-bounded LRU cache ([`rom::RomServer::with_cache_capacity`]); batched `transfer_sweep` / `port_response` / `transient` queries fan out over [`core::par`], bitwise-deterministic for any `BDSM_THREADS`; validates query inputs ([`rom::QueryError`]), enforces the certified envelope per [`rom::EnvelopePolicy`], and contains panics as [`rom::RomError::Internal`] |
//! | *scale out* | [`cluster::ClusterClient`] | distributed serving over multiple [`cluster::ShardNode`] processes: shard-by-model or shard-by-frequency-band placement ([`cluster::ShardPlan`]), a std-only length-prefixed TCP wire protocol ([`cluster::wire`]), request batching with admission control, retry-with-backoff, and a deterministic ω-order merge — replies **bitwise-equal** to a single local `RomServer` |
//!
//! # Quickstart: build once, save, serve
//!
//! ```
//! use bdsm::rom::{Reducer, RomServer};
//! use bdsm::core::synth::rc_grid;
//!
//! // build: an 8×10 RC mesh, reduced with moments matched at two shifts.
//! let net = rc_grid(8, 10, 1.0, 1e-3, 2.0);
//! let reducer = Reducer::builder()
//!     .blocks(4)
//!     .jomega_shifts(&[5.0e2, 2.0e3])
//!     .moments(2)
//!     .sparse()
//!     .build()?;
//! let artifact = reducer.reduce_to_artifact(&net)?;
//! assert!(artifact.reduced_dim() < artifact.full_dim());
//!
//! // save → load: bitwise round-trip through the versioned binary format.
//! let restored = bdsm::rom::RomArtifact::from_bytes(&artifact.to_bytes())?;
//! assert!(artifact.bitwise_eq(&restored));
//!
//! // serve: batched frequency sweeps over the loaded artifact, with
//! // per-shift factorizations cached across batches.
//! let mut server = RomServer::new();
//! let id = server.load_artifact(restored);
//! let sweep = server.transfer_sweep(id, &[2.0e2, 1.0e3, 3.0e3])?;
//! assert_eq!(sweep.len(), 3);
//! assert_eq!(server.cached_shifts(id)?, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Engine internals
//!
//! The layers underneath remain public — they are the extension surface
//! and the verification oracle the v1 API is checked against:
//!
//! | stage      | crate          | entry points |
//! |------------|----------------|--------------|
//! | *ingest*   | [`io`]         | [`io::load_netlist`] / [`io::save_netlist`] — SPICE-subset netlist parser and structurally round-tripping writer |
//! | *build*    | [`circuit`]    | [`circuit::Network`], [`circuit::mna::assemble`] |
//! | *partition*| [`circuit`]    | [`circuit::partition::partition_network_with`] ([`circuit::PartitionStrategy`]: BFS oracle or interface-aware nested dissection), [`circuit::ReductionSet`] for user-designated reduction regions |
//! | *factor*   | [`sparse`]     | [`sparse::CscMatrix`], [`sparse::SparseLu`] (scalar/supernodal [`sparse::NumericKernel`], panel-blocked multi-RHS solves), [`sparse::ShiftedPencil`] |
//! | *reduce*   | [`core`]       | [`core::engine::ReductionEngine::run`] — the one implementation under [`rom::Reducer`] and [`core::reduce::reduce_network`]: the staged engine (`Plan → Basis → Project → Certify`; adaptive shifts via [`core::engine::ShiftStrategy`], exact boundaries via [`core::projector::InterfacePolicy`]; parallel substrate: [`core::par`]) |
//! | *certify*  | [`core`]       | [`core::certify::certify_reduced`] — stability from a scale-free semidefiniteness test of `sym(G_r)` and `C_r` (equilibrated Cholesky, Lyapunov), passivity from that test + positive-real sampling, per-band a posteriori error bounds; the resulting [`core::certify::Certificate`] travels in [`core::engine::EngineReport`] and artifact provenance |
//! | *evaluate* | [`core`]       | [`core::transfer::eval_transfer`] / [`core::transfer::eval_jomega_sweep`] (dense complex LU, the ROM side), [`core::transfer::SparseTransferEvaluator`] (full models), [`core::transfer::eval_transfer_factored`] (against a cached factor) |
//! | *simulate* | [`sim`]        | [`sim::TransientSolver`] |
//! | *distribute* | [`cluster`]  | [`cluster::ShardPlan`] placement (by model / by frequency band), [`cluster::ShardNode`] TCP shard processes over [`rom::RomServer`], [`cluster::ClusterClient`] batching/retrying router with typed [`cluster::ClusterError`]s; [`cluster::wire`] frames go through the artifact format's codec, [`rom::codec`] (magic, version, word-wise checksum, alloc-bounded reads) |
//! | *observe*  | [`obs`]        | [`obs::span!`](span!) / [`obs::timing_span!`](timing_span!) RAII span tracing (Chrome-trace export via [`obs::Trace`]; spans are the one timing record), always-on counters ([`obs::metrics`]' `lu_factorizations`, [`rom::RomServer::metrics`]), [`obs::faultpoint!`](faultpoint!) fault-injection sites for robustness tests, [`obs::fault::panic_message`] for the typed `Internal` errors of contained panics; span sites are one-atomic-load no-ops outside a [`obs::Trace::collect`] session, and `BDSM_OBS=spans` (or [`obs::set_level`]) adds the fine spans to a session |
//! | *measure*  | [`mod@bench`]  | [`bench::time_with_warmup`] and the `scaling` binary's full-vs-ROM transient record; every other measurement is the standalone `benchmark/` harness |
//!
//! [`core::reduce::reduce_network`] (the reduced model alone) and
//! [`core::engine::ReductionEngine`] (`run` for model + report, or the
//! stage methods for recomposition and custom certification grids) are
//! the raw engine access; new code should start from [`rom::Reducer`].
//!
//! # Observability
//!
//! Spans record inside a [`obs::Trace::collect`] session:
//! [`rom::Reducer::reduce_traced`] opens one and returns the span trace
//! of a reduction ([`core::engine::EngineReport::trace`]) with its stage
//! spans. Set `BDSM_OBS=spans` (or [`obs::set_level`]) and the session
//! also records per-shift / per-block / per-frequency / per-query
//! detail from every pipeline layer in the process: engine stages,
//! sparse LU factorizations, the `core::par` workers, and `RomServer`
//! queries. Save a trace with [`obs::Trace::save_chrome`] and load it in
//! `chrome://tracing` or Perfetto. The counters ([`obs::metrics`],
//! [`rom::RomServer::metrics`]) count at every level. Recording never
//! changes numerical results — reduced models and served sweeps are
//! bitwise-identical at every level — and outside a session every span
//! site is a single relaxed atomic load.

pub use bdsm_bench as bench;
pub use bdsm_circuit as circuit;
pub use bdsm_cluster as cluster;
pub use bdsm_core as core;
pub use bdsm_io as io;
pub use bdsm_linalg as linalg;
pub use bdsm_obs as obs;
pub use bdsm_rom as rom;
pub use bdsm_sim as sim;
pub use bdsm_sparse as sparse;
// The façade's doc table links `obs::span!` / `obs::timing_span!` /
// `obs::faultpoint!`; `#[macro_export]` puts the macros at the
// re-exporting crate's root too.
pub use bdsm_obs::{faultpoint, span, timing_span};

/// Most-used types, for glob import.
pub mod prelude {
    pub use bdsm_circuit::{
        mna::assemble,
        partition::{partition_network, partition_network_with, PartitionStrategy},
        Network, ReductionSet, GROUND,
    };
    pub use bdsm_cluster::{
        ClientConfig, ClusterClient, ClusterError, NodeConfig, ShardNode, ShardPlan, WireError,
    };
    pub use bdsm_core::certify::{
        CertStatus, Certificate, CheckOutcome, ErrorBand, PassivityCertificate,
    };
    pub use bdsm_core::engine::{AdaptiveShiftOpts, EngineReport, ReductionEngine, ShiftStrategy};
    pub use bdsm_core::krylov::KrylovOpts;
    pub use bdsm_core::projector::InterfacePolicy;
    pub use bdsm_core::reduce::{reduce_network, ReducedModel, ReductionOpts, StageTimings};
    pub use bdsm_core::transfer::{
        eval_transfer, eval_transfer_factored, transfer_rel_err, SparseTransferEvaluator,
    };
    pub use bdsm_io::{
        load_netlist, parse_netlist, save_netlist, write_netlist, NetlistError, WriteError,
    };
    pub use bdsm_linalg::{Complex64, Matrix};
    pub use bdsm_obs::{MetricsSnapshot, ObsLevel, Trace};
    pub use bdsm_rom::{
        BuildError, EnvelopePolicy, Provenance, QueryError, Reducer, ReducerBuilder, RomArtifact,
        RomError, RomId, RomServer, ServerMetricsSnapshot,
    };
    pub use bdsm_sim::TransientSolver;
    pub use bdsm_sparse::{
        CscMatrix, FillOrdering, LuWorkspace, NumericKernel, ShiftedPencil, SparseLu,
    };
}
