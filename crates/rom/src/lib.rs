//! # bdsm-rom — the public API v1 of the BDSM pipeline
//!
//! The paper's economics are *build once, evaluate forever*: a
//! block-diagonal ROM is expensive to construct and nearly free to query.
//! This crate makes that lifecycle the first-class object, in three types:
//!
//! 1. [`Reducer`] — a typed builder over the staged reduction engine.
//!    Configuration is validated at [`ReducerBuilder::build`] time and
//!    surfaces as a [`BuildError`], not as a mid-pipeline failure:
//!
//!    ```no_run
//!    # use bdsm_rom::Reducer;
//!    # use bdsm_core::engine::AdaptiveShiftOpts;
//!    let reducer = Reducer::builder()
//!        .blocks(4)
//!        .adaptive(AdaptiveShiftOpts::default())
//!        .exact_interfaces()
//!        .sparse()
//!        .build()?;
//!    # Ok::<(), bdsm_rom::BuildError>(())
//!    ```
//!
//! 2. [`RomArtifact`] — a versioned, self-describing serialization of the
//!    reduced model: magic + format version, the reduced descriptor, block
//!    structure, interface map, and provenance (engine version, shifts
//!    chosen, residual trajectory). Each reduced matrix is stored dense or
//!    compressed-row, whichever is smaller (format v8). Round-trips are
//!    bitwise-exact (every `f64` via its bit pattern, `−0.0` included)
//!    and guarded by a checksum.
//!
//! 3. [`RomServer`] — a thread-safe handle over loaded artifacts that
//!    caches per-shift ROM factorizations and serves batched
//!    [`transfer_sweep`](RomServer::transfer_sweep),
//!    [`port_response`](RomServer::port_response), and
//!    [`transient`](RomServer::transient) queries concurrently on the
//!    `bdsm-core` parallel substrate — bitwise-deterministic for any
//!    `BDSM_THREADS`, and bitwise-equal to evaluating the freshly built
//!    model. Queries are validated up front (typed [`QueryError`]s),
//!    checked against the artifact's certified frequency envelope per
//!    [`EnvelopePolicy`], and contained: a panic anywhere inside a query
//!    surfaces as [`RomError::Internal`], never across the API boundary.
//!
//! Underneath this API sits one implementation,
//! `bdsm_core::engine::ReductionEngine::run` (`reduce_network` is that call
//! minus the report); [`codec`] is the binary codec the artifact format
//! shares with the cluster wire protocol.

pub mod artifact;
pub mod builder;
pub mod codec;
pub mod server;

pub use artifact::{Provenance, RomArtifact, RomError, FORMAT_VERSION, MAGIC};
pub use builder::{BuildError, Reducer, ReducerBuilder};
pub use server::{EnvelopePolicy, QueryError, RomId, RomServer, ServerMetricsSnapshot};

// The certificate types travel inside every artifact; re-export them so
// downstream users of the serving layer need not depend on `bdsm-core`
// directly to inspect provenance.
pub use bdsm_core::certify::{
    CertStatus, Certificate, CheckOutcome, ErrorBand, PassivityCertificate,
};
