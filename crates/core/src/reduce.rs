//! The BDSM pipeline entry points: network → partition → block bases →
//! reduced model.
//!
//! This is the **low-level engine path**. The supported public API lives
//! one layer up in the `bdsm-rom` crate (re-exported as `bdsm::rom`):
//! its `Reducer` builder validates a whole configuration before any
//! factorization work starts, and its `RomArtifact`/`RomServer` types add
//! persistence and concurrent serving on top of the [`ReducedModel`]
//! produced here.
//!
//! [`reduce_network`] is [`ReductionEngine::run`] minus the report; the
//! staged [`crate::engine::ReductionEngine`] runs the explicit
//! `Plan → Basis → Project → Certify` pipeline:
//!
//! 1. **Plan** — MNA assembly (`bdsm_circuit::mna`), the bus partition
//!    (BFS growth or nested dissection into at least `k` blocks, or the
//!    blocks a `kept_buses` region implies), the block-contiguous state
//!    permutation, the interface-state export, and the shared symbolic
//!    pencil analysis;
//! 2. **Basis** — a global moment-matching Krylov basis
//!    ([`crate::krylov`]), with expansion points either fixed or chosen
//!    adaptively ([`ShiftStrategy`]);
//! 3. **Project** — the block-diagonal projector `V = diag(V₁,…,V_k)`
//!    ([`crate::projector`], folded or exact-interface per
//!    [`InterfacePolicy`]) and the congruence transforms `G_r = VᵀGV`,
//!    `C_r = VᵀCV`, `B_r = VᵀB`, `L_r = LV`; the ROM keeps the block
//!    structure of `V` (its block dims and interface map), not `V`;
//! 4. **Certify** — transfer-residual evaluation on a `jω` grid, which is
//!    also what drives the adaptive greedy shift selection.
//!
//! The shifted solves and congruence products run on the sparse
//! subsystem (`bdsm_sparse`): the full model is never densified, which is
//! what admits `n ≫ 10⁴` grids. The dense Krylov reference tests compare
//! against is a free function, [`crate::krylov::global_krylov_basis`].

use crate::engine::{EngineReport, ReductionEngine, ShiftStrategy};
use crate::krylov::KrylovOpts;
use crate::projector::InterfacePolicy;
use bdsm_circuit::{CircuitError, Descriptor, Network, PartitionStrategy};
use bdsm_linalg::{LinalgError, Matrix};
use std::fmt;

/// Errors from the reduction pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Circuit-layer failure (assembly, partitioning, validation).
    Circuit(CircuitError),
    /// Numerical failure in the linear-algebra kernels.
    Linalg(LinalgError),
    /// Inconsistent [`ReductionOpts`]: the verdict of
    /// [`ReductionOpts::validate`].
    InvalidOptions(BuildError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Circuit(e) => write!(f, "circuit error: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::InvalidOptions(what) => write!(f, "invalid reduction options: {what}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Circuit(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            CoreError::InvalidOptions(e) => Some(e),
        }
    }
}

impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<BuildError> for CoreError {
    fn from(e: BuildError) -> Self {
        CoreError::InvalidOptions(e)
    }
}

/// What is wrong with a [`ReductionOpts`] — the one rule set
/// ([`ReductionOpts::validate`]) that both `ReductionEngine::new` and the
/// `bdsm-rom` builder apply, so an inconsistent configuration fails before
/// any factorization work starts.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// The partition must have at least one block.
    ZeroBlocks,
    /// At least one block moment must be matched per expansion point.
    ZeroMoments,
    /// The fixed shift strategy needs at least one expansion point (the
    /// adaptive strategy seeds itself from its candidate grid).
    NoShifts,
    /// An expansion point is NaN or infinite.
    NonFiniteShift {
        /// The offending value.
        value: f64,
    },
    /// A tolerance that must be positive and finite is not.
    InvalidTolerance {
        /// Which tolerance.
        what: &'static str,
    },
    /// The reduced-dimension budget cannot hold one state per block.
    BudgetBelowBlocks {
        /// The requested budget.
        budget: usize,
        /// The block count: the requested one, or the partition's when
        /// it produced more; under a kept-bus region, the partition's.
        blocks: usize,
    },
    /// An inconsistency in the adaptive greedy configuration.
    Adaptive {
        /// What is wrong.
        what: &'static str,
    },
    /// The kept-bus list of [`ReductionOpts::kept_buses`] is empty.
    /// (Out-of-range indices are network-dependent, so they surface at
    /// reduce time as a circuit-layer error instead.)
    EmptyReductionSet,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroBlocks => write!(f, "need at least one partition block"),
            BuildError::ZeroMoments => write!(f, "need at least one moment per expansion point"),
            BuildError::NoShifts => write!(
                f,
                "the fixed strategy needs at least one expansion point \
                 (real or jω); use the adaptive strategy to let the engine choose"
            ),
            BuildError::NonFiniteShift { value } => {
                write!(f, "expansion point {value} is not finite")
            }
            BuildError::InvalidTolerance { what } => {
                write!(f, "{what} must be positive and finite")
            }
            BuildError::BudgetBelowBlocks { budget, blocks } => write!(
                f,
                "budget {budget} cannot hold one state for each of {blocks} blocks"
            ),
            BuildError::Adaptive { what } => write!(f, "adaptive {what}"),
            BuildError::EmptyReductionSet => {
                write!(f, "keep_buses needs at least one bus to keep")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Result alias for the reduction pipeline.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Options for [`reduce_network`].
#[derive(Debug, Clone)]
pub struct ReductionOpts {
    /// Number of partition blocks `k`.
    pub num_blocks: usize,
    /// Moment-matching options for the global basis. Under
    /// [`ShiftStrategy::Adaptive`] these points form the initial coarse
    /// shift set the greedy selection grows from.
    pub krylov: KrylovOpts,
    /// Relative singular-value threshold for per-block rank truncation.
    pub rank_tol: f64,
    /// Optional total reduced-dimension budget `q_max`; enforced by capping
    /// every block at `q_max / k` dominant directions, `k` the block count
    /// the partition produced. Must be at least that count (each block
    /// keeps one state minimum): checked against `num_blocks` up front
    /// unless [`kept_buses`](Self::kept_buses) is set, and against the
    /// partition's own count at plan time. Under
    /// [`InterfacePolicy::Exact`] the cap applies to the appended Krylov
    /// directions only — interface columns are mandatory.
    pub max_reduced_dim: Option<usize>,
    /// How expansion points are chosen — fixed (the default, reproducing
    /// the historical pipeline bitwise) or adaptive greedy selection.
    pub shift_strategy: ShiftStrategy,
    /// How interface buses are treated by the projector — folded (the
    /// default) or preserved exactly.
    pub interface_policy: InterfacePolicy,
    /// How the bus graph is split into blocks — BFS growth (the default,
    /// reproducing the historical pipeline bitwise) or separator-minimising
    /// nested dissection. Ignored when [`kept_buses`](Self::kept_buses) is
    /// set.
    pub partition_strategy: PartitionStrategy,
    /// User-designated reduction region: when set, these buses are kept and
    /// every other bus is eliminated, overriding `num_blocks` and
    /// `partition_strategy` (the partition is derived from the kept set via
    /// [`bdsm_circuit::ReductionSet`]). Pair with [`InterfacePolicy::Exact`]
    /// to read kept boundary voltages off the ROM verbatim.
    pub kept_buses: Option<Vec<usize>>,
}

impl ReductionOpts {
    /// Checks the options on their own, before any network is seen.
    ///
    /// # Errors
    ///
    /// The first [`BuildError`] rule the options break; see each variant.
    pub fn validate(&self) -> std::result::Result<(), BuildError> {
        if self.num_blocks == 0 {
            return Err(BuildError::ZeroBlocks);
        }
        if self.krylov.moments_per_point == 0 {
            return Err(BuildError::ZeroMoments);
        }
        for &s in self
            .krylov
            .expansion_points
            .iter()
            .chain(&self.krylov.jomega_points)
        {
            if !s.is_finite() {
                return Err(BuildError::NonFiniteShift { value: s });
            }
        }
        if !(self.rank_tol > 0.0 && self.rank_tol.is_finite()) {
            return Err(BuildError::InvalidTolerance { what: "rank_tol" });
        }
        if !(self.krylov.deflation_tol > 0.0 && self.krylov.deflation_tol.is_finite()) {
            return Err(BuildError::InvalidTolerance {
                what: "deflation_tol",
            });
        }
        // A kept-bus region takes its blocks from the region, not from
        // `num_blocks`; the plan checks the budget against those.
        if let (Some(budget), None) = (self.max_reduced_dim, &self.kept_buses) {
            if budget < self.num_blocks {
                return Err(BuildError::BudgetBelowBlocks {
                    budget,
                    blocks: self.num_blocks,
                });
            }
        }
        if let Some(kept) = &self.kept_buses {
            if kept.is_empty() {
                return Err(BuildError::EmptyReductionSet);
            }
        }
        let have_points =
            !(self.krylov.expansion_points.is_empty() && self.krylov.jomega_points.is_empty());
        match &self.shift_strategy {
            ShiftStrategy::Fixed => {
                if !have_points {
                    return Err(BuildError::NoShifts);
                }
            }
            ShiftStrategy::Adaptive(a) => {
                if a.candidate_omegas.is_empty() {
                    return Err(BuildError::Adaptive {
                        what: "candidate frequency grid is empty",
                    });
                }
                if a.candidate_omegas.iter().any(|w| !w.is_finite()) {
                    return Err(BuildError::Adaptive {
                        what: "candidate frequency grid contains a non-finite value",
                    });
                }
                if !(a.tol > 0.0 && a.tol.is_finite()) {
                    return Err(BuildError::Adaptive {
                        what: "residual tolerance must be positive and finite",
                    });
                }
                if a.max_shifts == 0 {
                    return Err(BuildError::Adaptive {
                        what: "shift budget must be at least 1",
                    });
                }
            }
        }
        Ok(())
    }
}

impl Default for ReductionOpts {
    fn default() -> Self {
        ReductionOpts {
            num_blocks: 4,
            krylov: KrylovOpts::default(),
            rank_tol: 1e-12,
            max_reduced_dim: None,
            shift_strategy: ShiftStrategy::default(),
            interface_policy: InterfacePolicy::default(),
            partition_strategy: PartitionStrategy::default(),
            kept_buses: None,
        }
    }
}

/// Output of the BDSM pipeline: the reduced matrices `(G_r, C_r, B_r, L_r)`,
/// the block structure they preserve (block sizes and reduced block
/// dims, the interface export and the exact-interface map), and the
/// permuted full model to audit them against. The block-diagonal
/// projector that built them is dropped after the congruence, and the
/// bus partition behind the blocks stays inside the Plan stage; each
/// bus's block follows from `state_order` and `block_sizes` (bus
/// voltages are states `0..num_buses`), its interface flag from
/// `interface_states`.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// Reduced conductance `VᵀGV`.
    pub g: Matrix,
    /// Reduced storage `VᵀCV`.
    pub c: Matrix,
    /// Reduced input map `VᵀB`.
    pub b: Matrix,
    /// Reduced output map `LV`.
    pub l: Matrix,
    /// Per-block reduced dimensions `qᵢ`, summing to `q`: block `i` owns
    /// the `qᵢ` reduced coordinates that follow those of blocks `0..i`.
    pub block_dims: Vec<usize>,
    /// The `(full state row, reduced column)` pairs of exactly-preserved
    /// interface states, in block order — non-empty only under
    /// [`InterfacePolicy::Exact`], where the reduced state vector carries
    /// each listed boundary voltage verbatim at the given coordinate.
    pub interface_map: Vec<(usize, usize)>,
    /// State permutation (`new_of_old`) applied before projection.
    pub state_order: Vec<usize>,
    /// Per-block state counts of the permuted full model.
    pub block_sizes: Vec<usize>,
    /// Interface states of the permuted full model (sorted) — the boundary
    /// set exported by the partitioner, regardless of policy.
    pub interface_states: Vec<usize>,
    /// The permuted full model, kept sparse (for validation and
    /// comparison; densify via [`Descriptor::to_dense`] when a dense
    /// oracle is wanted and `n` is small).
    pub full: Descriptor,
}

impl ReducedModel {
    /// Full state dimension `n`.
    pub fn full_dim(&self) -> usize {
        self.full.dim()
    }

    /// Reduced state dimension `q`.
    pub fn reduced_dim(&self) -> usize {
        self.g.nrows()
    }
}

/// Wall-clock breakdown of one reduction, in microseconds per pipeline
/// stage: a view of an [`EngineReport`] ([`StageTimings::from_report`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// MNA assembly, the block-contiguous state permutation, and the
    /// plan's one-off symbolic pencil analysis.
    pub assemble_us: f64,
    /// BFS partitioning of the bus graph.
    pub partition_us: f64,
    /// Global Krylov basis: shifted factorizations + block recurrences
    /// (fans out per expansion point; the adaptive strategy's single pass
    /// over seeds ∪ grid, full-model samples included), plus the per-round
    /// merges of the adaptive loop.
    pub krylov_us: f64,
    /// The per-point slice of `krylov_us`: `krylov.point` spans (shifted
    /// factorizations + block recurrences), stage spans every run's trace
    /// session records at any obs level.
    pub krylov_point_us: f64,
    /// The merge slice of `krylov_us`: `krylov.merge` spans (the blocked
    /// panel-merge tree, or the sequential MGS merge under the oracle
    /// kernel), recorded like `krylov_point_us`.
    pub krylov_merge_us: f64,
    /// Projector construction: per-block SVD compression (fans out per
    /// block), summed over adaptive rounds.
    pub svd_us: f64,
    /// The congruence products `VᵀGV`, `VᵀCV`, `VᵀB`, `LV` (block pairs
    /// fan out per pair), summed over adaptive rounds.
    pub project_us: f64,
    /// Certification: the per-round ROM sweeps and residuals of the
    /// adaptive loop plus the property certificate (the full-model side of
    /// the residuals comes out of the Krylov pass and is timed there).
    pub certify_us: f64,
    /// Greedy rounds the adaptive loop ran (zero for the fixed strategy).
    pub adaptive_rounds: usize,
    /// Worker cap the fan-out stages ran under (`par::max_threads`).
    pub threads: usize,
}

impl StageTimings {
    /// Total across the instrumented stages.
    pub fn total_us(&self) -> f64 {
        self.assemble_us
            + self.partition_us
            + self.krylov_us
            + self.svd_us
            + self.project_us
            + self.certify_us
    }

    /// The stage view of a run's report: same-named `stage.*` spans of
    /// [`EngineReport::trace`] sum across adaptive rounds, and assembly is
    /// the part of `stage.plan` not spent partitioning.
    pub fn from_report(report: &EngineReport) -> StageTimings {
        let trace = &report.trace;
        let partition_us = trace.total_us("stage.partition");
        StageTimings {
            assemble_us: (trace.total_us("stage.plan") - partition_us).max(0.0),
            partition_us,
            krylov_us: trace.total_us("stage.krylov"),
            krylov_point_us: trace.total_us("krylov.point"),
            krylov_merge_us: trace.total_us("krylov.merge"),
            svd_us: trace.total_us("stage.svd"),
            project_us: trace.total_us("stage.project"),
            certify_us: trace.total_us("stage.certify"),
            adaptive_rounds: report.rounds.len(),
            threads: report.threads,
        }
    }
}

/// Runs the full BDSM reduction pipeline on a network.
///
/// # Errors
///
/// - [`CoreError::Circuit`] if the network is empty, has no ports, or the
///   partition request is invalid;
/// - [`CoreError::Linalg`] if a factorization fails (e.g. a singular
///   `G + s₀C` at an expansion point);
/// - [`CoreError::InvalidOptions`] for options that break a
///   [`ReductionOpts::validate`] rule, or a budget below the block count
///   the partition produced.
pub fn reduce_network(net: &Network, opts: &ReductionOpts) -> Result<ReducedModel> {
    Ok(ReductionEngine::new(net, opts)?.run()?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AdaptiveShiftOpts;
    use crate::synth::rc_ladder;
    use crate::transfer::{eval_transfer, transfer_rel_err};
    use bdsm_linalg::Complex64;

    fn ladder_opts(k: usize, s0: f64, moments: usize) -> ReductionOpts {
        ReductionOpts {
            num_blocks: k,
            krylov: KrylovOpts {
                expansion_points: vec![s0],
                jomega_points: vec![],
                moments_per_point: moments,
                deflation_tol: 1e-10,
                ortho: Default::default(),
            },
            rank_tol: 1e-12,
            max_reduced_dim: None,
            ..ReductionOpts::default()
        }
    }

    #[test]
    fn pipeline_produces_consistent_shapes() {
        let net = rc_ladder(24, 1.0, 1e-3, 2.0);
        let opts = ladder_opts(3, 1.0e3, 3);
        let rm = reduce_network(&net, &opts).unwrap();
        assert_eq!(rm.full_dim(), 24);
        assert_eq!(rm.block_sizes.iter().sum::<usize>(), 24);
        let q = rm.reduced_dim();
        assert!(q < 24);
        assert_eq!(rm.g.shape(), (q, q));
        assert_eq!(rm.c.shape(), (q, q));
        assert_eq!(rm.b.shape(), (q, 2));
        assert_eq!(rm.l.shape(), (2, q));
        assert_eq!(rm.block_dims.len(), 3);
        assert_eq!(rm.block_dims.iter().sum::<usize>(), q);
        // The projector behind the ROM, rebuilt stage by stage.
        let engine = ReductionEngine::new(&net, &opts).unwrap();
        let plan = engine.plan().unwrap();
        let points = crate::krylov::collect_points(&opts.krylov);
        let global = engine.basis(&plan, &points).unwrap();
        let projector = engine.projector(&plan, &global).unwrap();
        assert_eq!(projector.num_blocks(), 3);
        let v = projector.to_dense();
        let gram = v.transpose().matmul(&v).unwrap();
        assert!(gram.sub(&Matrix::identity(q)).unwrap().norm_max() < 1e-12);
        assert_eq!(projector.block_dims(), rm.block_dims);
    }

    #[test]
    fn reduced_model_matches_at_expansion_point_region() {
        let net = rc_ladder(24, 1.0, 1e-3, 2.0);
        let s0 = 1.0e3;
        let rm = reduce_network(&net, &ladder_opts(3, s0, 4)).unwrap();
        // Near the (real) expansion point the match must be tight.
        let s = Complex64::jomega(s0 * 0.5);
        let hf = {
            let full = rm.full.to_dense();
            eval_transfer(&full.g, &full.c, &full.b, &full.l, s).unwrap()
        };
        let hr = eval_transfer(&rm.g, &rm.c, &rm.b, &rm.l, s).unwrap();
        assert!(transfer_rel_err(&hf, &hr) < 1e-8);
    }

    #[test]
    fn permutation_preserves_transfer_function() {
        // The permuted full model must have the same transfer function as
        // the original descriptor: H is invariant under state reordering.
        let net = rc_ladder(12, 1.0, 1e-3, 2.0);
        let desc = bdsm_circuit::mna::assemble(&net).unwrap();
        let rm = reduce_network(&net, &ladder_opts(2, 1.0e3, 2)).unwrap();
        let s = Complex64::jomega(500.0);
        let orig = desc.to_dense();
        let h_orig = eval_transfer(&orig.g, &orig.c, &orig.b, &orig.l, s).unwrap();
        let full = rm.full.to_dense();
        let h_perm = eval_transfer(&full.g, &full.c, &full.b, &full.l, s).unwrap();
        assert!(transfer_rel_err(&h_orig, &h_perm) < 1e-13);
    }

    #[test]
    fn portless_network_rejected() {
        let mut net = Network::new();
        let a = net.add_bus("a");
        net.add_resistor(a, bdsm_circuit::GROUND, 1.0).unwrap();
        assert!(matches!(
            reduce_network(&net, &ReductionOpts::default()),
            Err(CoreError::Circuit(CircuitError::NoPorts))
        ));
    }

    #[test]
    fn budget_below_block_count_rejected() {
        let net = rc_ladder(12, 1.0, 1e-3, 2.0);
        let mut opts = ladder_opts(3, 1.0e3, 2);
        opts.max_reduced_dim = Some(2); // 3 blocks need at least 3 states
        assert!(matches!(
            reduce_network(&net, &opts),
            Err(CoreError::InvalidOptions(_))
        ));
    }

    #[test]
    fn invalid_options_fail_before_any_factorisation() {
        // A NaN rank tolerance used to reduce this grid to 5 states
        // (`s > NaN·σ₀` keeps nothing) where `1e-12` keeps 80.
        let net = crate::synth::rc_grid(20, 25, 1.0, 1e-3, 2.0);
        let base = || ladder_opts(4, 1.0e3, 2);
        let mut nan_rank = base();
        nan_rank.rank_tol = f64::NAN;
        let mut nan_deflation = base();
        nan_deflation.krylov.deflation_tol = f64::NAN;
        let mut infinite_candidate = base();
        infinite_candidate.shift_strategy = ShiftStrategy::Adaptive(AdaptiveShiftOpts {
            candidate_omegas: vec![1.0e2, f64::INFINITY],
            ..AdaptiveShiftOpts::default()
        });
        let mut zero_budget = base();
        zero_budget.max_reduced_dim = Some(0);
        let cases = [
            (nan_rank, BuildError::InvalidTolerance { what: "rank_tol" }),
            (
                nan_deflation,
                BuildError::InvalidTolerance {
                    what: "deflation_tol",
                },
            ),
            (
                infinite_candidate,
                BuildError::Adaptive {
                    what: "candidate frequency grid contains a non-finite value",
                },
            ),
            (
                zero_budget,
                BuildError::BudgetBelowBlocks {
                    budget: 0,
                    blocks: 4,
                },
            ),
        ];
        for (opts, verdict) in cases {
            assert_eq!(opts.validate(), Err(verdict.clone()));
            // `ReductionEngine::new` assembles and factors nothing, so the
            // verdict arrives before the first factorisation.
            let err = ReductionEngine::new(&net, &opts).unwrap_err();
            assert_eq!(err, CoreError::InvalidOptions(verdict));
            assert_eq!(reduce_network(&net, &opts).unwrap_err(), err);
        }
    }

    #[test]
    fn error_conversions_and_display() {
        let e: CoreError = CircuitError::EmptyNetwork.into();
        assert!(e.to_string().contains("circuit"));
        let e: CoreError = LinalgError::Singular { at: 3 }.into();
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
