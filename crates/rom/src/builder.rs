//! The builder-style front door of the reduction pipeline.
//!
//! [`Reducer`] subsumes the sprawling `ReductionOpts` / `KrylovOpts`
//! literals of the engine layer behind a typed builder that validates the
//! whole configuration **at build time**: every inconsistency the engine
//! would surface mid-pipeline (or an example would turn into a panic) is a
//! [`BuildError`] from [`ReducerBuilder::build`] instead. A built
//! [`Reducer`] is immutable and reusable — reduce any number of networks
//! with it, or go straight to a persistable artifact with
//! [`Reducer::reduce_to_artifact`].

use crate::artifact::{RomArtifact, RomError};
use bdsm_circuit::{Network, PartitionStrategy};
use bdsm_core::engine::{AdaptiveShiftOpts, EngineReport, ReductionEngine, ShiftStrategy};
use bdsm_core::krylov::KrylovOpts;
use bdsm_core::projector::InterfacePolicy;
use bdsm_core::reduce::{
    reduce_network, ReducedModel, ReductionOpts, Result as CoreResult, StageTimings,
};

/// Typed configuration errors surfaced by [`ReducerBuilder::build`]: the
/// rule set of [`ReductionOpts::validate`], which the engine applies again
/// (as `CoreError::InvalidOptions`) to options that never went through a
/// builder.
pub use bdsm_core::reduce::BuildError;

/// A validated reduction configuration: the typed, high-level entry point
/// of the BDSM pipeline. Construct with [`Reducer::builder`].
///
/// ```
/// use bdsm_rom::Reducer;
/// use bdsm_core::synth::rc_grid;
///
/// let reducer = Reducer::builder()
///     .blocks(4)
///     .jomega_shifts(&[5.0e2, 2.0e3])
///     .moments(2)
///     .sparse()
///     .build()?;
/// let rm = reducer.reduce(&rc_grid(8, 10, 1.0, 1e-3, 2.0))?;
/// assert!(rm.reduced_dim() < rm.full_dim());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Reducer {
    opts: ReductionOpts,
}

impl Reducer {
    /// Starts a builder with the defaults: 4 blocks, 2 moments per point,
    /// fixed shifts (none yet — the build fails until
    /// shifts are given or [`ReducerBuilder::adaptive`] is selected),
    /// folded interfaces, `1e-12` rank and deflation tolerances.
    pub fn builder() -> ReducerBuilder {
        ReducerBuilder::default()
    }

    /// The validated engine options this reducer runs with.
    pub fn opts(&self) -> &ReductionOpts {
        &self.opts
    }

    /// Runs the reduction pipeline on a network.
    ///
    /// # Errors
    ///
    /// Propagates engine failures (assembly, partitioning, singular
    /// shifted factorizations); configuration errors were already caught
    /// at build time.
    pub fn reduce(&self, net: &Network) -> CoreResult<ReducedModel> {
        reduce_network(net, &self.opts)
    }

    /// [`reduce`](Self::reduce) with the full observability bundle: the
    /// audit report (final shifts, residual trajectory, certificate, and
    /// the span trace of the run on [`EngineReport::trace`], at whatever
    /// detail the ambient `bdsm_obs` level recorded) plus the
    /// [`StageTimings`] view of that report.
    ///
    /// # Errors
    ///
    /// Same as [`reduce`](Self::reduce).
    pub fn reduce_traced(
        &self,
        net: &Network,
    ) -> CoreResult<(ReducedModel, EngineReport, StageTimings)> {
        let (rm, report) = ReductionEngine::new(net, &self.opts)?.run()?;
        let stages = StageTimings::from_report(&report);
        Ok((rm, report, stages))
    }

    /// Builds the network's ROM and captures it — reduced system, block
    /// structure, interface map, and full provenance — as a persistable
    /// [`RomArtifact`]: the build-once → save → serve entry point.
    ///
    /// # Errors
    ///
    /// Propagates engine failures as [`RomError::Core`].
    pub fn reduce_to_artifact(&self, net: &Network) -> Result<RomArtifact, RomError> {
        let (rm, report) = ReductionEngine::new(net, &self.opts)?.run()?;
        Ok(RomArtifact::from_model(&rm, Some(&report)))
    }
}

/// Builder for [`Reducer`]; every setter is chainable and the final
/// [`build`](Self::build) validates the whole configuration at once.
#[derive(Debug, Clone)]
pub struct ReducerBuilder {
    opts: ReductionOpts,
}

impl Default for ReducerBuilder {
    fn default() -> Self {
        ReducerBuilder {
            opts: ReductionOpts {
                num_blocks: 4,
                krylov: KrylovOpts {
                    expansion_points: Vec::new(),
                    jomega_points: Vec::new(),
                    moments_per_point: 2,
                    deflation_tol: 1e-12,
                    ortho: Default::default(),
                },
                rank_tol: 1e-12,
                max_reduced_dim: None,
                shift_strategy: ShiftStrategy::Fixed,
                interface_policy: InterfacePolicy::Folded,
                partition_strategy: PartitionStrategy::Bfs,
                kept_buses: None,
            },
        }
    }
}

impl ReducerBuilder {
    /// Number of partition blocks `k`.
    #[must_use]
    pub fn blocks(mut self, k: usize) -> Self {
        self.opts.num_blocks = k;
        self
    }

    /// Real expansion points `s₀` (replaces any previously set).
    #[must_use]
    pub fn real_shifts(mut self, points: &[f64]) -> Self {
        self.opts.krylov.expansion_points = points.to_vec();
        self
    }

    /// Imaginary-axis expansion points `s₀ = jω₀`, as angular frequencies
    /// (replaces any previously set). Under [`adaptive`](Self::adaptive)
    /// these form the coarse initial set the greedy loop grows from.
    #[must_use]
    pub fn jomega_shifts(mut self, omegas: &[f64]) -> Self {
        self.opts.krylov.jomega_points = omegas.to_vec();
        self
    }

    /// Block moments matched per expansion point.
    #[must_use]
    pub fn moments(mut self, per_point: usize) -> Self {
        self.opts.krylov.moments_per_point = per_point;
        self
    }

    /// Relative norm threshold for deflating dependent Krylov directions.
    #[must_use]
    pub fn deflation_tol(mut self, tol: f64) -> Self {
        self.opts.krylov.deflation_tol = tol;
        self
    }

    /// Relative singular-value threshold for per-block rank truncation.
    #[must_use]
    pub fn rank_tol(mut self, tol: f64) -> Self {
        self.opts.rank_tol = tol;
        self
    }

    /// Total reduced-dimension budget `q_max` (per-block cap `q_max / k`;
    /// under exact interfaces the cap applies to the appended Krylov
    /// directions only). It must hold one state per block: checked against
    /// [`blocks`](Self::blocks) at [`build`](Self::build), and under
    /// [`keep_buses`](Self::keep_buses) against the region's block count
    /// at reduce time.
    #[must_use]
    pub fn budget(mut self, q_max: usize) -> Self {
        self.opts.max_reduced_dim = Some(q_max);
        self
    }

    /// A no-op kept for source compatibility: every reduction runs on the
    /// sparse factorization subsystem (there is no other backend).
    #[must_use]
    pub fn sparse(self) -> Self {
        self
    }

    /// Adaptive greedy shift selection: the engine grows the shift set
    /// from the configured points (or the grid's geometric middle when
    /// none are given), promoting worst-residual candidates until `tol`
    /// or the shift budget is reached.
    #[must_use]
    pub fn adaptive(mut self, opts: AdaptiveShiftOpts) -> Self {
        self.opts.shift_strategy = ShiftStrategy::Adaptive(opts);
        self
    }

    /// Preserve interface-bus voltages exactly: identity columns on the
    /// boundary rows, and the ROM state carries each boundary voltage
    /// verbatim ([`RomArtifact::interface_map`] names the coordinates).
    #[must_use]
    pub fn exact_interfaces(mut self) -> Self {
        self.opts.interface_policy = InterfacePolicy::Exact;
        self
    }

    /// Separator-minimising nested-dissection partitioning — smaller
    /// interface sets on meshes, directly shrinking the exact-interface
    /// ROM dimension. Ignored when [`keep_buses`](Self::keep_buses) is set.
    #[must_use]
    pub fn nested_dissection(mut self) -> Self {
        self.opts.partition_strategy = PartitionStrategy::NestedDissection;
        self
    }

    /// User-designated reduction region: keep exactly these buses
    /// (duplicates are dropped, order is irrelevant) and eliminate every
    /// other bus. The partition is derived from the kept set instead of
    /// `blocks`/the partition strategy, and the interface policy switches
    /// to exact so kept boundary voltages are ROM coordinates verbatim.
    ///
    /// Bus indices are validated against the concrete network at reduce
    /// time (a [`bdsm_circuit::CircuitError::InvalidReductionSet`] wrapped
    /// in the engine error); an empty list fails at
    /// [`build`](Self::build) with [`BuildError::EmptyReductionSet`].
    #[must_use]
    pub fn keep_buses(mut self, buses: &[usize]) -> Self {
        let mut kept = buses.to_vec();
        kept.sort_unstable();
        kept.dedup();
        self.opts.kept_buses = Some(kept);
        self.opts.interface_policy = InterfacePolicy::Exact;
        self
    }

    /// Validates the configuration and produces the immutable [`Reducer`].
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] variant; see each for the rule it enforces.
    pub fn build(self) -> Result<Reducer, BuildError> {
        self.opts.validate()?;
        Ok(Reducer { opts: self.opts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_fails_without_shifts() {
        assert_eq!(
            Reducer::builder().build().unwrap_err(),
            BuildError::NoShifts
        );
    }

    #[test]
    fn every_validation_rule_fires() {
        let base = || Reducer::builder().jomega_shifts(&[1.0e2]);
        assert_eq!(
            base().blocks(0).build().unwrap_err(),
            BuildError::ZeroBlocks
        );
        assert_eq!(
            base().moments(0).build().unwrap_err(),
            BuildError::ZeroMoments
        );
        assert!(matches!(
            base().real_shifts(&[f64::NAN]).build().unwrap_err(),
            BuildError::NonFiniteShift { .. }
        ));
        assert_eq!(
            base().rank_tol(0.0).build().unwrap_err(),
            BuildError::InvalidTolerance { what: "rank_tol" }
        );
        assert_eq!(
            base().deflation_tol(f64::INFINITY).build().unwrap_err(),
            BuildError::InvalidTolerance {
                what: "deflation_tol"
            }
        );
        assert_eq!(
            base().blocks(6).budget(5).build().unwrap_err(),
            BuildError::BudgetBelowBlocks {
                budget: 5,
                blocks: 6
            }
        );
        let bad_adaptive = |a: AdaptiveShiftOpts| {
            Reducer::builder()
                .adaptive(a)
                .build()
                .expect_err("adaptive config must be rejected")
        };
        assert!(matches!(
            bad_adaptive(AdaptiveShiftOpts {
                candidate_omegas: vec![],
                ..AdaptiveShiftOpts::default()
            }),
            BuildError::Adaptive { .. }
        ));
        assert!(matches!(
            bad_adaptive(AdaptiveShiftOpts {
                tol: -1.0,
                ..AdaptiveShiftOpts::default()
            }),
            BuildError::Adaptive { .. }
        ));
        assert!(matches!(
            bad_adaptive(AdaptiveShiftOpts {
                max_shifts: 0,
                ..AdaptiveShiftOpts::default()
            }),
            BuildError::Adaptive { .. }
        ));
    }

    #[test]
    fn adaptive_without_explicit_shifts_builds() {
        // The greedy loop self-seeds from the candidate grid.
        let r = Reducer::builder()
            .adaptive(AdaptiveShiftOpts::default())
            .exact_interfaces()
            .build()
            .unwrap();
        assert!(matches!(
            r.opts().shift_strategy,
            ShiftStrategy::Adaptive(_)
        ));
        assert_eq!(r.opts().interface_policy, InterfacePolicy::Exact);
    }

    #[test]
    fn keep_buses_switches_to_exact_and_rejects_empty() {
        let r = Reducer::builder()
            .jomega_shifts(&[1.0e3])
            .keep_buses(&[7, 3, 3, 5])
            .build()
            .unwrap();
        assert_eq!(r.opts().kept_buses.as_deref(), Some(&[3, 5, 7][..]));
        assert_eq!(r.opts().interface_policy, InterfacePolicy::Exact);
        assert_eq!(
            Reducer::builder()
                .jomega_shifts(&[1.0e3])
                .keep_buses(&[])
                .build()
                .unwrap_err(),
            BuildError::EmptyReductionSet
        );
    }

    #[test]
    fn partition_strategy_is_recorded() {
        let r = Reducer::builder()
            .jomega_shifts(&[1.0e3])
            .nested_dissection()
            .build()
            .unwrap();
        assert_eq!(
            r.opts().partition_strategy,
            bdsm_circuit::PartitionStrategy::NestedDissection
        );
    }

    #[test]
    fn artifact_records_configured_policy_even_without_interfaces() {
        // A single-block partition has no interface buses, so the map is
        // empty — but the provenance must still say Exact was configured.
        use bdsm_core::projector::InterfacePolicy;
        let net = bdsm_core::synth::rc_ladder(12, 1.0, 1e-3, 2.0);
        let artifact = Reducer::builder()
            .blocks(1)
            .jomega_shifts(&[1.0e3])
            .exact_interfaces()
            .build()
            .unwrap()
            .reduce_to_artifact(&net)
            .unwrap();
        assert!(artifact.interface_map.is_empty());
        assert_eq!(artifact.provenance.interface_policy, InterfacePolicy::Exact);
    }

    #[test]
    fn reduce_to_artifact_is_from_model_of_the_traced_build() {
        // Both ways to build an artifact must record the same provenance:
        // a kept-bus region, and an Exact build whose single block has no
        // interface buses (an inferred policy would read Folded).
        let grid = bdsm_core::synth::rc_grid(6, 7, 1.0, 1e-3, 2.0);
        let ladder = bdsm_core::synth::rc_ladder(12, 1.0, 1e-3, 2.0);
        let base = || Reducer::builder().jomega_shifts(&[1.0e3]);
        for (reducer, net) in [
            (base().keep_buses(&[0, 1, 2, 20]), &grid),
            (base().blocks(1).exact_interfaces(), &ladder),
        ] {
            let reducer = reducer.build().unwrap();
            let (rm, report, _) = reducer.reduce_traced(net).unwrap();
            let traced = RomArtifact::from_model(&rm, Some(&report)).to_bytes();
            assert_eq!(reducer.reduce_to_artifact(net).unwrap().to_bytes(), traced);
        }
    }

    #[test]
    fn kept_bus_budget_is_checked_against_the_region_blocks() {
        // This region splits the grid into 3 blocks; the default block
        // count (4) plays no part in a kept-bus build.
        use bdsm_core::reduce::CoreError;
        let grid = bdsm_core::synth::rc_grid(6, 7, 1.0, 1e-3, 2.0);
        let base = || {
            Reducer::builder()
                .jomega_shifts(&[1.0e3])
                .keep_buses(&[0, 1, 2, 20])
        };
        let rm = base().budget(3).build().unwrap().reduce(&grid).unwrap();
        assert_eq!(rm.block_sizes, [3, 1, 38]);
        assert_eq!(rm.block_dims.len(), 3);
        let one_block = base().blocks(1).budget(3).build().unwrap();
        let same = one_block.reduce(&grid).unwrap();
        assert_eq!(rm.g.as_slice(), same.g.as_slice());
        assert_eq!(
            base().budget(2).build().unwrap().reduce(&grid).unwrap_err(),
            CoreError::InvalidOptions(BuildError::BudgetBelowBlocks {
                budget: 2,
                blocks: 3
            })
        );
    }

    #[test]
    fn display_messages_name_the_problem() {
        assert!(BuildError::NoShifts.to_string().contains("expansion point"));
        assert!(BuildError::BudgetBelowBlocks {
            budget: 2,
            blocks: 3
        }
        .to_string()
        .contains("budget 2"));
    }
}
