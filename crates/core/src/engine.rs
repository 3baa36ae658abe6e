//! The staged reduction engine: an explicit `Plan → Basis → Project →
//! Certify` pipeline behind [`crate::reduce::reduce_network`].
//!
//! Each stage is a public method on [`ReductionEngine`], so callers can
//! run the monolithic pipeline ([`ReductionEngine::run`]) or drive the
//! stages individually — rebuild a basis with different shifts over the
//! same [`Plan`], certify an existing ROM on a fresh frequency grid, and
//! so on. Two strategy axes select the interesting behaviour:
//!
//! - [`ShiftStrategy`] decides **where the Krylov expansion points sit**.
//!   [`ShiftStrategy::Fixed`] uses the hand-picked points of
//!   [`KrylovOpts`](crate::krylov::KrylovOpts) exactly as the historical pipeline did (and
//!   reproduces it bitwise). [`ShiftStrategy::Adaptive`] starts from the
//!   coarse [`KrylovOpts`](crate::krylov::KrylovOpts) set and **greedily adds the worst-residual
//!   candidate**: each round evaluates the transfer residual
//!   `‖H(jω) − Ĥ(jω)‖_F / ‖H‖_F` on a candidate grid and promotes the
//!   frequency where the ROM is worst to a new expansion point, until the
//!   tolerance or the shift budget is hit.
//! - [`InterfacePolicy`] (see [`crate::projector`]) decides how interface
//!   buses are treated: folded into the block SVD bases, or preserved
//!   **exactly** via identity columns so boundary voltages survive the
//!   reduction verbatim.
//!
//! # One factorization per point
//!
//! A Krylov block at `s₀` starts from `X₀ = (G + s₀C)⁻¹B`, and the
//! full-model sample the adaptive loop certifies against is
//! `H(s₀) = L·X₀`: one shifted solve yields both. The adaptive front end
//! is therefore **one per-point pass over `unique(seed points ∪ candidate
//! grid)`** ([`ReductionEngine::point_candidates`]): each point is
//! factored exactly once on the plan's pencil, its recurrence runs at
//! once on the same worker, and the start-block solve also emits the
//! sample. Every greedy round after that is a look-up of an
//! already-computed candidate set plus the merge/SVD/congruence of the
//! grown basis and a ROM-side sweep — no round factors anything, and a
//! seed that sits on the grid (the default mid-grid seed does) shares the
//! grid point's factorization.
//!
//! The cost model, at the benchmark's mesh shape (n = 10⁴, m = 2, two
//! moments, six grid frequencies): the eager recurrence of a grid point
//! that is never promoted costs ≈ 18 ms (moments × one panel solve +
//! absorb) against ≈ 200 ms for each factorization it makes unnecessary
//! (the separate reference sweep factored every grid point a first time,
//! promotion a second), and the eager sets hold
//! `grid × 2·m·moments × n × 8 B` = 3.8 MB — less than **one** retained
//! factor (12.8 MB), which is why candidates, not factors, are what the
//! pass keeps. That build went from 10 sparse factorizations to 7.
//!
//! Every stage inherits the determinism contract of [`crate::par`]: the
//! greedy selection is driven by bitwise-deterministic sweeps and
//! first-wins arg-max, so adaptive reductions are identical for any
//! `BDSM_THREADS`.

use crate::certify::{certify_reduced, Certificate, ResidualSweep};
use crate::krylov::{
    collect_points, merge_candidate_sets, merge_candidates, ExpansionPoint, PointCandidates,
};
use crate::projector::{sparse_congruences, BlockDiagProjector, InterfacePolicy};
use crate::reduce::{BuildError, CoreError, ReducedModel, ReductionOpts, Result};
use crate::transfer::{eval_jomega_sweep, transfer_rel_err, CMatrix, SparseTransferEvaluator};
use bdsm_circuit::{
    grouped_state_order, interface_state_indices, mna, partition_network_with, CircuitError,
    DenseDescriptor, Descriptor, Network, ReductionSet,
};
use bdsm_linalg::{LinalgError, Matrix};
use bdsm_obs::{timing_span, Trace};
use bdsm_sparse::ShiftedPencil;

/// What a ROM keeps of its projector: the per-block reduced dimensions
/// and the `(full state row, reduced column)` interface map.
type BlockStructure = (Vec<usize>, Vec<(usize, usize)>);

/// How the Basis stage chooses its Krylov expansion points.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ShiftStrategy {
    /// Use the [`KrylovOpts`](crate::krylov::KrylovOpts) points verbatim —
    /// the historical behaviour and the default.
    #[default]
    Fixed,
    /// Greedy residual-driven placement: start from the (coarse)
    /// [`KrylovOpts`](crate::krylov::KrylovOpts) points and repeatedly add
    /// the candidate frequency with the worst transfer residual.
    Adaptive(AdaptiveShiftOpts),
}

/// Options of the greedy adaptive shift selection.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveShiftOpts {
    /// Candidate angular frequencies: both the residual-evaluation grid
    /// and the pool greedy selection promotes shifts from.
    pub candidate_omegas: Vec<f64>,
    /// Stop once the worst relative transfer residual on the candidate
    /// grid drops to this tolerance.
    pub tol: f64,
    /// Hard budget on the total number of expansion points (initial coarse
    /// set included) — the knob bounding selection cost.
    pub max_shifts: usize,
}

impl AdaptiveShiftOpts {
    /// `count` log-spaced angular frequencies in `[lo, hi]` — the usual
    /// shape of a candidate grid spanning the band of interest.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2` or the bounds are not positive and ordered
    /// (candidate grids are caller-chosen test infrastructure).
    pub fn log_grid(lo: f64, hi: f64, count: usize) -> Vec<f64> {
        assert!(count >= 2 && lo > 0.0 && hi > lo, "bad candidate grid");
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..count)
            .map(|i| (llo + (lhi - llo) * i as f64 / (count - 1) as f64).exp())
            .collect()
    }
}

impl Default for AdaptiveShiftOpts {
    fn default() -> Self {
        AdaptiveShiftOpts {
            candidate_omegas: Self::log_grid(1.0e1, 1.0e4, 10),
            tol: 1e-6,
            max_shifts: 6,
        }
    }
}

/// Output of the Plan stage: everything about the reduction that does not
/// depend on the expansion points — the block-contiguous state order,
/// the permuted full model, the interface-state export, and the shared
/// symbolic factorization of the shifted pencil. The bus partition these
/// come from is a local of [`ReductionEngine::plan`]: the state order,
/// block sizes and interface states carry everything later stages read.
#[derive(Debug, Clone)]
pub struct Plan {
    /// State permutation (`new_of_old`) into block-contiguous order.
    pub state_order: Vec<usize>,
    /// Per-block state counts after grouping.
    pub block_sizes: Vec<usize>,
    /// Interface states (permuted indices, sorted) exported by
    /// `bdsm_circuit::partition` — the paper's boundary set.
    pub interface_states: Vec<usize>,
    /// The permuted full model (`G`, `C` sparse).
    pub full: Descriptor,
    /// Interface rows per block in local coordinates (empty lists under
    /// [`InterfacePolicy::Folded`]).
    interface_local: Vec<Vec<usize>>,
    /// Shared symbolic analysis of `G + sC`.
    pencil: ShiftedPencil,
}

/// One greedy round of the adaptive loop, for the audit trail (the
/// `benchmark/` harness reads `core.adaptive_rounds` from it).
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Expansion points active during this round.
    pub points: usize,
    /// Global basis columns the round's merge produced.
    pub basis_cols: usize,
    /// Reduced dimension of the round's ROM.
    pub reduced_dim: usize,
    /// Worst candidate-grid residual of the round's ROM.
    pub worst_residual: f64,
    /// Frequency carrying the worst residual.
    pub worst_omega: f64,
    /// The shift the greedy step promoted afterwards (`None` on the final
    /// round).
    pub added_omega: Option<f64>,
}

/// What the engine did: the final shift set, the per-round residual
/// trajectory, whether the adaptive loop certified its tolerance, and the
/// interface policy and kept-bus region it ran with.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Expansion points of the final basis, in merge order.
    pub shifts: Vec<ExpansionPoint>,
    /// Columns of the final global Krylov basis (total Krylov vectors).
    pub basis_cols: usize,
    /// Greedy rounds, in order (empty for [`ShiftStrategy::Fixed`]).
    pub rounds: Vec<RoundRecord>,
    /// `true` when the adaptive loop met its residual tolerance on the
    /// candidate grid (always `false` for the uncertified fixed path).
    pub certified: bool,
    /// Typed property certificate of the reduced pencil — passivity,
    /// stability, and a posteriori error bands (see [`crate::certify`]).
    /// [`CertStatus::Unknown`](crate::certify::CertStatus::Unknown) for
    /// stage-recomposition callers that never ran the Certify stage.
    pub certificate: Certificate,
    /// The span trace of the run (stage spans always; per-shift/per-block
    /// spans when `BDSM_OBS=spans`). Empty for stage-recomposition
    /// callers that never went through [`ReductionEngine::run`].
    pub trace: Trace,
    /// Worker cap the fan-out stages ran under (`par::max_threads`).
    pub threads: usize,
    /// Interface policy the projector ran with.
    pub interface_policy: InterfacePolicy,
    /// User-designated kept buses the partition was derived from (sorted,
    /// unique; empty for a plain block-count build).
    pub kept_buses: Vec<usize>,
}

/// The staged reduction engine. Construct with [`ReductionEngine::new`],
/// then either [`run`](Self::run) the whole pipeline or drive the stages
/// ([`plan`](Self::plan), [`basis`](Self::basis),
/// [`projector`](Self::projector) + [`congruence`](Self::congruence),
/// [`certify`](Self::certify)) individually.
#[derive(Debug, Clone)]
pub struct ReductionEngine<'n> {
    net: &'n Network,
    opts: ReductionOpts,
}

impl<'n> ReductionEngine<'n> {
    /// Builds an engine over a network, validating the options up front.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] for a portless network,
    /// [`CoreError::InvalidOptions`] for options that break a
    /// [`ReductionOpts::validate`] rule.
    pub fn new(net: &'n Network, opts: &ReductionOpts) -> Result<Self> {
        if net.num_inputs() == 0 || net.num_outputs() == 0 {
            return Err(CircuitError::NoPorts.into());
        }
        opts.validate()?;
        Ok(ReductionEngine {
            net,
            opts: opts.clone(),
        })
    }

    /// The options the engine runs with.
    pub fn opts(&self) -> &ReductionOpts {
        &self.opts
    }

    /// **Plan** stage: MNA assembly, partitioning, block-contiguous
    /// permutation, interface export, and the shared symbolic
    /// factorization — everything independent of the expansion points.
    ///
    /// # Errors
    ///
    /// Propagates assembly/partitioning failures and rejects a reduced
    /// dimension budget below the block count the partition produced
    /// (which can exceed the requested one, see
    /// [`partition_network_with`]).
    pub fn plan(&self) -> Result<Plan> {
        let _stage = timing_span!("stage.plan");
        let desc = mna::assemble(self.net)?;
        let partition = {
            let _s = timing_span!("stage.partition");
            match &self.opts.kept_buses {
                Some(kept) => ReductionSet::keep_buses(self.net, kept)?.to_partition(self.net)?,
                None => partition_network_with(
                    self.net,
                    self.opts.num_blocks,
                    self.opts.partition_strategy,
                )?,
            }
        };
        let (new_of_old, block_sizes) = grouped_state_order(self.net, &desc, &partition);
        let full = desc.permuted(&new_of_old);
        let interface_states = interface_state_indices(&desc, &partition, &new_of_old);

        // Every block keeps at least one state, so a budget below the
        // partition's block count is unsatisfiable; fail loudly instead of
        // silently exceeding it.
        let blocks = block_sizes.len();
        if let Some(budget) = self.opts.max_reduced_dim.filter(|&b| b < blocks) {
            return Err(BuildError::BudgetBelowBlocks { budget, blocks }.into());
        }
        // Per-block local interface rows, only materialized when the exact
        // policy will consume them.
        let mut interface_local = vec![Vec::new(); block_sizes.len()];
        if self.opts.interface_policy == InterfacePolicy::Exact {
            let mut offsets = vec![0usize; block_sizes.len() + 1];
            for (i, &sz) in block_sizes.iter().enumerate() {
                offsets[i + 1] = offsets[i] + sz;
            }
            for &s in &interface_states {
                let bi = offsets.partition_point(|&o| o <= s) - 1;
                interface_local[bi].push(s - offsets[bi]);
            }
        }
        // The one-off symbolic pencil analysis, shared by every shift of
        // every adaptive round.
        let pencil = ShiftedPencil::new(&full.g, &full.c)?;
        Ok(Plan {
            state_order: new_of_old,
            block_sizes,
            interface_states,
            full,
            interface_local,
            pencil,
        })
    }

    /// **Basis** stage: the global moment-matching basis for an explicit
    /// set of expansion points, on the plan's pencil.
    ///
    /// # Errors
    ///
    /// Rejects an empty point set / zero moments and propagates singular
    /// shifted factorizations.
    pub fn basis(&self, plan: &Plan, points: &[ExpansionPoint]) -> Result<Matrix> {
        self.validate_points(points)?;
        let raw = self.point_candidates(plan, points);
        Ok(merge_candidates(
            raw,
            self.opts.krylov.deflation_tol,
            self.opts.krylov.ortho,
        )?)
    }

    fn validate_points(&self, points: &[ExpansionPoint]) -> Result<()> {
        if points.is_empty() || self.opts.krylov.moments_per_point == 0 {
            return Err(CoreError::Linalg(LinalgError::InvalidArgument {
                what: "krylov: need at least one expansion point and one moment",
            }));
        }
        Ok(())
    }

    /// **Basis** stage, per-point half: every listed point is factored
    /// exactly once on the plan's pencil (one [`crate::par`] item per
    /// point) and runs its block recurrence; a `jω` point also
    /// returns the full-model sample `H(jω)` its start-block solve
    /// produced. [`basis`](Self::basis) merges these sets; the adaptive
    /// loop runs this once over `seeds ∪ grid` and looks sets up after.
    pub fn point_candidates(
        &self,
        plan: &Plan,
        points: &[ExpansionPoint],
    ) -> Vec<bdsm_linalg::Result<PointCandidates>> {
        crate::krylov::candidates_for_points_sparse(
            &plan.pencil,
            &plan.full.c,
            &plan.full.b,
            Some(&plan.full.l),
            &self.opts.krylov,
            points,
        )
    }

    /// **Project** stage, first half: the block-diagonal projector for a
    /// global basis. The [`InterfacePolicy`] was applied by
    /// [`plan`](Self::plan): its interface rows are empty under
    /// [`InterfacePolicy::Folded`].
    ///
    /// # Errors
    ///
    /// Propagates SVD failures and interface-list validation errors.
    pub fn projector(&self, plan: &Plan, global: &Matrix) -> Result<BlockDiagProjector> {
        let max_block_dim = self
            .opts
            .max_reduced_dim
            .map(|total| total / plan.block_sizes.len());
        Ok(BlockDiagProjector::from_global_basis(
            global,
            &plan.block_sizes,
            self.opts.rank_tol,
            max_block_dim,
            &plan.interface_local,
        )?)
    }

    /// **Project** stage, second half: the congruence transforms
    /// `VᵀGV`, `VᵀCV`, `VᵀB`, `LV` on the sparse full model.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the projector.
    pub fn congruence(
        &self,
        plan: &Plan,
        projector: &BlockDiagProjector,
    ) -> Result<DenseDescriptor> {
        let [g, c] = sparse_congruences(projector, [&plan.full.g, &plan.full.c])?;
        Ok(DenseDescriptor {
            g,
            c,
            b: projector.project_input(&plan.full.b)?,
            l: projector.project_output(&plan.full.l)?,
        })
    }

    /// **Certify** stage, quantitative half: relative transfer residuals
    /// of a ROM against the sparse full model on a `jω` grid, both sides
    /// evaluated through the existing parallel sweeps.
    ///
    /// # Errors
    ///
    /// Propagates singular evaluations (a grid point hitting a pole).
    pub fn certify(
        &self,
        plan: &Plan,
        rom: &DenseDescriptor,
        omegas: &[f64],
    ) -> Result<ResidualSweep> {
        let full = self.full_sweep(plan, omegas)?;
        self.certify_against(rom, omegas, &full).map(|(s, _)| s)
    }

    /// Full-model reference sweep on a caller-chosen grid (one sparse
    /// complex refactorization per frequency, fanned out over workers) on
    /// the plan's pencil.
    fn full_sweep(&self, plan: &Plan, omegas: &[f64]) -> Result<Vec<CMatrix>> {
        let (b, l) = (plan.full.b.clone(), plan.full.l.clone());
        let ev = SparseTransferEvaluator::from_pencil(plan.pencil.clone(), b, l)?;
        Ok(ev.eval_jomega_sweep(omegas)?)
    }

    /// Residuals of a ROM against precomputed full-model samples — the
    /// shape the adaptive loop runs every round. Also returns the
    /// ROM's own sweep so the final round's passivity sampling is free.
    fn certify_against(
        &self,
        rom: &DenseDescriptor,
        omegas: &[f64],
        full: &[CMatrix],
    ) -> Result<(ResidualSweep, Vec<CMatrix>)> {
        let rom_sweep = eval_jomega_sweep(&rom.g, &rom.c, &rom.b, &rom.l, omegas)?;
        let residuals: Vec<f64> = full
            .iter()
            .zip(&rom_sweep)
            .map(|(hf, hr)| transfer_rel_err(hf, hr))
            .collect();
        let mut worst = 0.0_f64;
        let mut worst_omega = omegas.first().copied().unwrap_or(0.0);
        for (&r, &w) in residuals.iter().zip(omegas) {
            // A NaN residual ranks worst (and stays worst): it can never
            // pass the tolerance.
            if r > worst || (r.is_nan() && !worst.is_nan()) {
                worst = r;
                worst_omega = w;
            }
        }
        let sweep = ResidualSweep {
            omegas: omegas.to_vec(),
            residuals,
            worst,
            worst_omega,
        };
        Ok((sweep, rom_sweep))
    }

    /// Runs the full staged pipeline — the one implementation behind
    /// every reduce entry point.
    ///
    /// The whole pipeline executes inside a `bdsm_obs` trace session:
    /// [`EngineReport::trace`] carries the stage spans (`BDSM_OBS=spans`
    /// adds per-shift / per-block / per-frequency detail), and
    /// [`StageTimings::from_report`](crate::reduce::StageTimings::from_report)
    /// is the per-stage view of it.
    ///
    /// # Errors
    ///
    /// Any stage failure; see the stage methods.
    pub fn run(&self) -> Result<(ReducedModel, EngineReport)> {
        let (result, trace) = Trace::collect(|| self.run_staged());
        let (rm, mut report) = result?;
        report.trace = trace;
        report.threads = crate::par::max_threads();
        report.interface_policy = self.opts.interface_policy;
        report.kept_buses = self.opts.kept_buses.clone().unwrap_or_default();
        Ok((rm, report))
    }

    /// The pipeline body `run` traces: Plan, then the strategy's
    /// Basis → Project (→ Certify) loop, then descriptor assembly.
    fn run_staged(&self) -> Result<(ReducedModel, EngineReport)> {
        let plan = self.plan()?;
        let (rom, (block_dims, interface_map), report) = match &self.opts.shift_strategy {
            ShiftStrategy::Fixed => self.run_fixed(&plan)?,
            ShiftStrategy::Adaptive(a) => self.run_adaptive(&plan, a)?,
        };
        let rm = ReducedModel {
            g: rom.g,
            c: rom.c,
            b: rom.b,
            l: rom.l,
            block_dims,
            interface_map,
            state_order: plan.state_order,
            block_sizes: plan.block_sizes,
            interface_states: plan.interface_states,
            full: plan.full,
        };
        Ok((rm, report))
    }

    /// The whole Project stage of one build or round: the projector, its
    /// congruence, and the block structure the ROM keeps of it — the
    /// `n × q` projector itself is dropped here.
    fn project(&self, plan: &Plan, global: &Matrix) -> Result<(DenseDescriptor, BlockStructure)> {
        let projector = {
            let _s = timing_span!("stage.svd");
            self.projector(plan, global)?
        };
        let rom = {
            let _s = timing_span!("stage.project");
            self.congruence(plan, &projector)?
        };
        let structure = (projector.block_dims(), projector.interface_map().to_vec());
        Ok((rom, structure))
    }

    /// One pass of Basis → Project with the fixed [`KrylovOpts`](crate::krylov::KrylovOpts) points —
    /// the historical pipeline, stage by stage.
    fn run_fixed(&self, plan: &Plan) -> Result<(DenseDescriptor, BlockStructure, EngineReport)> {
        let points = collect_points(&self.opts.krylov);
        let global = {
            let _s = timing_span!("stage.krylov", points = points.len());
            self.basis(plan, &points)?
        };
        let (rom, structure) = self.project(plan, &global)?;
        // The fixed path never measures residuals against the full model,
        // but the property checks (passivity/stability of the reduced
        // pencil) are cheap and still apply — sampled at the `jω` expansion
        // points, with no error bands.
        let certificate = {
            let _s = timing_span!("stage.certify");
            let omegas: Vec<f64> = points
                .iter()
                .filter_map(|p| match *p {
                    ExpansionPoint::Jomega(w) => Some(w),
                    ExpansionPoint::Real(_) => None,
                })
                .collect();
            certify_reduced(&rom.g, &rom.c, &rom.b, &rom.l, &omegas, None, None)?
        };
        let report = EngineReport {
            shifts: points,
            basis_cols: global.ncols(),
            rounds: Vec::new(),
            certified: false,
            certificate,
            ..EngineReport::default()
        };
        Ok((rom, structure, report))
    }

    /// The greedy adaptive loop: one factoring pass over
    /// `unique(seed points ∪ candidate grid)` yields every candidate set
    /// and every full-model sample the loop can ever need; the rounds
    /// after it merge, project and certify without touching the pencil.
    fn run_adaptive(
        &self,
        plan: &Plan,
        a: &AdaptiveShiftOpts,
    ) -> Result<(DenseDescriptor, BlockStructure, EngineReport)> {
        let mut points = collect_points(&self.opts.krylov);
        if points.is_empty() {
            // Coarse seed: the geometric middle of the candidate grid.
            let mid = a.candidate_omegas[a.candidate_omegas.len() / 2];
            points.push(ExpansionPoint::Jomega(mid));
        }
        self.validate_points(&points)?;

        // Seeds first, then the grid; a point listed twice (a seed on the
        // grid, a repeated grid frequency) is the same bits and is
        // factored once.
        let omegas = a.candidate_omegas.iter().copied();
        let grid: Vec<_> = omegas.map(ExpansionPoint::Jomega).collect();
        let mut pass: Vec<ExpansionPoint> = Vec::new();
        for &p in points.iter().chain(&grid) {
            if !pass.iter().any(|&q| same_bits(q, p)) {
                pass.push(p);
            }
        }
        let sets = {
            let _s = timing_span!("stage.krylov", points = pass.len());
            let sets = self.point_candidates(plan, &pass).into_iter();
            sets.collect::<bdsm_linalg::Result<Vec<_>>>()?
        };
        let set_of = |p: ExpansionPoint| {
            let slot = pass.iter().position(|&q| same_bits(q, p));
            &sets[slot.expect("every seed and grid point went through the pass")]
        };
        // The full model never changes across rounds: its candidate-grid
        // sweep is the samples the pass's start-block solves produced.
        let sample_of = |&p| set_of(p).sample.clone().expect("a jω point has a sample");
        let full_sweep: Vec<CMatrix> = grid.iter().map(sample_of).collect();
        // Candidate sets of the active expansion points, in merge order
        // (initial points, then greedy additions).
        let mut active: Vec<_> = points.iter().map(|&p| &set_of(p).vectors[..]).collect();

        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut certified = false;
        let (rom, structure, basis_cols, cert, rom_sweep) = loop {
            let global = {
                let _s = timing_span!("stage.krylov");
                merge_candidate_sets(
                    &active,
                    self.opts.krylov.deflation_tol,
                    self.opts.krylov.ortho,
                )?
            };
            let (rom, structure) = self.project(plan, &global)?;
            let (cert, rom_sweep) = {
                let _s = timing_span!("stage.certify");
                self.certify_against(&rom, &a.candidate_omegas, &full_sweep)?
            };

            rounds.push(RoundRecord {
                points: points.len(),
                basis_cols: global.ncols(),
                reduced_dim: rom.dim(),
                worst_residual: cert.worst,
                worst_omega: cert.worst_omega,
                added_omega: None,
            });
            if cert.worst <= a.tol {
                certified = true;
                break (rom, structure, global.ncols(), cert, rom_sweep);
            }
            if points.len() >= a.max_shifts {
                break (rom, structure, global.ncols(), cert, rom_sweep);
            }
            // Greedy step: the worst-residual candidate not already an
            // expansion point (first-wins tie-break keeps this — and hence
            // the whole loop — deterministic for any worker count).
            let mut pick: Option<(f64, f64)> = None;
            for (&w, &r) in cert.omegas.iter().zip(&cert.residuals) {
                let used = points
                    .iter()
                    .any(|p| matches!(*p, ExpansionPoint::Jomega(x) if x == w));
                if used {
                    continue;
                }
                if pick.is_none_or(|(_, pr)| r > pr) {
                    pick = Some((w, r));
                }
            }
            let Some((w_next, _)) = pick else {
                break (rom, structure, global.ncols(), cert, rom_sweep); // pool exhausted
            };
            rounds.last_mut().expect("round pushed").added_omega = Some(w_next);
            let pt = ExpansionPoint::Jomega(w_next);
            active.push(&set_of(pt).vectors);
            points.push(pt);
        };
        // Property certificate of the final ROM: the passivity sampling
        // reuses the last round's ROM sweep, the error bands fold the last
        // round's residuals — no extra transfer evaluations.
        let certificate = {
            let _s = timing_span!("stage.certify");
            certify_reduced(
                &rom.g,
                &rom.c,
                &rom.b,
                &rom.l,
                &a.candidate_omegas,
                Some(&rom_sweep),
                Some(&cert),
            )?
        };
        let report = EngineReport {
            shifts: points,
            basis_cols,
            rounds,
            certified,
            certificate,
            ..EngineReport::default()
        };
        Ok((rom, structure, report))
    }
}

/// Same kind and same `f64` bit pattern — the identity under which the
/// adaptive pass shares one factorization (so `0.0` and `-0.0`, whose
/// pencils differ in a sign bit, stay two points).
fn same_bits(a: ExpansionPoint, b: ExpansionPoint) -> bool {
    match (a, b) {
        (ExpansionPoint::Real(x), ExpansionPoint::Real(y))
        | (ExpansionPoint::Jomega(x), ExpansionPoint::Jomega(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}
