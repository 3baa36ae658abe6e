//! BDSM reduction engine: block-Krylov moment matching, block-diagonal
//! projection, congruence transforms, and transfer-function evaluation.
//!
//! The crate implements the paper's core contribution — a block-diagonal
//! structured model reduction scheme for power grid networks — on top of the
//! circuit layer (`bdsm-circuit`) and the dense kernels (`bdsm-linalg`):
//!
//! - [`engine`] is the staged pipeline (`Plan → Basis → Project →
//!   Certify`) behind every reduction: each stage is a public method of
//!   [`engine::ReductionEngine`], the expansion points are either fixed
//!   or chosen by greedy residual-driven adaptation
//!   ([`engine::ShiftStrategy`]), and interface buses can be preserved
//!   exactly ([`projector::InterfacePolicy`]);
//! - [`krylov`] builds a global moment-matching basis with block Arnoldi
//!   through the sparse factorization subsystem (`bdsm-sparse`, with
//!   blocked multi-RHS start blocks); a dense function of the same
//!   recurrence is kept as the reference tests compare against;
//! - [`par`] is the threading substrate: scoped-thread fan-out over a
//!   shared work queue (no external deps), used by the per-point Krylov
//!   factorizations, the per-block SVDs, the block-pair congruence, and
//!   the per-frequency sweeps — all bitwise-deterministic for any worker
//!   count;
//! - [`projector`] splits it into the structured projector
//!   `V = diag(V₁,…,V_k)` (per-block SVD compression fanned out over
//!   [`par`]; identity columns on interface states under the exact
//!   policy) and applies congruence transforms, including a sparse-input
//!   variant that never densifies the full model and fans out per block
//!   pair;
//! - [`reduce`] wires network → MNA → partition → basis → reduced model:
//!   [`reduce::reduce_network`] is [`engine::ReductionEngine::run`] minus
//!   the report, and [`reduce::StageTimings`] is the per-stage wall-time
//!   view of that report;
//! - [`certify`] is the trust layer of the Certify stage: typed
//!   passivity/stability certificates of the reduced pencil (eigenvalue
//!   margins, positive-real sampling with violation localization,
//!   Lyapunov/spectral verification) plus per-band a posteriori error
//!   bounds, recorded on [`engine::EngineReport::certificate`];
//! - [`transfer`] evaluates `H(s) = L(G + sC)⁻¹B` for full and reduced
//!   models so they can be compared frequency by frequency — a dense
//!   complex LU for ROMs ([`transfer::eval_jomega_sweep`]) and a sparse
//!   evaluator for full models ([`transfer::SparseTransferEvaluator`]),
//!   with `jω` sweeps fanned out per frequency;
//! - [`synth`] generates ladder/grid/feeder test topologies.
//!
//! # Examples
//!
//! ```
//! use bdsm_core::{reduce::reduce_network, reduce::ReductionOpts, synth};
//!
//! let net = synth::rc_ladder(40, 1.0, 1e-3, 2.0);
//! let mut opts = ReductionOpts::default();
//! opts.krylov.expansion_points = vec![1.0e3];
//! let rm = reduce_network(&net, &opts)?;
//! assert!(rm.reduced_dim() < rm.full_dim());
//! # Ok::<(), bdsm_core::CoreError>(())
//! ```

pub mod certify;
pub mod engine;
pub mod krylov;
pub mod par;
pub mod projector;
pub mod reduce;
pub mod synth;
pub mod transfer;

pub use bdsm_circuit::DenseDescriptor;
pub use certify::{
    certify_reduced, CertStatus, Certificate, CertifyOpts, CheckOutcome, ErrorBand,
    PassivityCertificate, ResidualSweep, StabilityCertificate,
};
pub use engine::{
    AdaptiveShiftOpts, EngineReport, Plan, ReductionEngine, RoundRecord, ShiftStrategy,
};
pub use krylov::{
    collect_points, global_krylov_basis, global_krylov_basis_sparse, ExpansionPoint, KrylovOpts,
};
pub use projector::{BlockDiagProjector, InterfacePolicy};
pub use reduce::{
    reduce_network, BuildError, CoreError, ReducedModel, ReductionOpts, StageTimings,
};
pub use transfer::{
    eval_jomega_sweep, eval_transfer, eval_transfer_factored, transfer_rel_err, CMatrix,
    SparseTransferEvaluator, ZLu,
};

/// Version of the reduction engine, recorded in ROM artifact provenance so
/// a loaded artifact names the code that built it.
pub const ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");
