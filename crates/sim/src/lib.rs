//! Time-domain simulation of descriptor models `C ẋ + G x = B u`.
//!
//! The solver is the implicit (backward) Euler scheme
//!
//! ```text
//!     (C/h + G) x⁺ = (C/h) x + B u⁺,      y⁺ = L x⁺,
//! ```
//!
//! which is A-stable — the right default for stiff RC/RLC grids. The
//! left-hand side `C/h + G` is factored **once** at construction and the
//! factors are reused by every step; only the right-hand side changes per
//! step. Two backends share that contract: a dense LU for reduced models
//! (and small full models), and a sparse LU ([`TransientSolver::new_sparse`]
//! / [`TransientSolver::for_full`]) that keeps full `n ≫ 10⁴` grids inside
//! the same memory budget as their MNA stamp tables.
//!
//! # Examples
//!
//! ```
//! use bdsm_linalg::Matrix;
//! use bdsm_sim::TransientSolver;
//!
//! // One-pole RC: pole at g/c = 2 rad/s, DC gain 1/g = 0.5.
//! let g = Matrix::from_rows(&[&[2.0]]);
//! let c = Matrix::from_rows(&[&[1.0]]);
//! let b = Matrix::from_rows(&[&[1.0]]);
//! let l = Matrix::from_rows(&[&[1.0]]);
//! let mut sim = TransientSolver::new(&g, &c, &b, &l, 1e-3)?;
//! let mut y = Vec::new();
//! for _ in 0..5000 {
//!     y = sim.step(&[1.0])?;
//! }
//! assert!((y[0] - 0.5).abs() < 1e-3); // settled to the DC solution
//! # Ok::<(), bdsm_linalg::LinalgError>(())
//! ```

use bdsm_core::ReducedModel;
use bdsm_linalg::{DenseLu, LinalgError, Matrix, Result};
use bdsm_sparse::{CscMatrix, ShiftedPencil, SparseLu};

/// The factored left-hand side `C/h + G` plus the `C/h` needed per step.
///
/// Both variants are factored exactly once, at solver construction; a step
/// is one matvec and one pair of triangular solves.
#[derive(Debug, Clone)]
enum Stepper {
    Dense {
        /// `C / h`, kept for the right-hand side.
        c_over_h: Matrix,
        /// LU factors of `C/h + G`.
        lhs: DenseLu,
    },
    Sparse {
        /// `C / h`, kept for the right-hand side.
        c_over_h: CscMatrix<f64>,
        /// Sparse LU factors of `C/h + G`.
        lhs: SparseLu<f64>,
    },
}

impl Stepper {
    /// Advances the state: solves `(C/h + G) x⁺ = (C/h) x + bu`.
    fn advance(&self, x: &[f64], bu: &[f64]) -> Result<Vec<f64>> {
        match self {
            Stepper::Dense { c_over_h, lhs } => {
                let mut rhs = c_over_h.matvec(x)?;
                bdsm_linalg::vector::axpy(1.0, bu, &mut rhs);
                lhs.solve(&rhs)
            }
            Stepper::Sparse { c_over_h, lhs } => {
                let mut rhs = c_over_h.matvec(x)?;
                bdsm_linalg::vector::axpy(1.0, bu, &mut rhs);
                lhs.solve(&rhs)
            }
        }
    }
}

/// Backward-Euler transient solver for a descriptor model, with a dense or
/// sparse factorization backend behind one stepping API.
#[derive(Debug, Clone)]
pub struct TransientSolver {
    /// Input map.
    b: Matrix,
    /// Output map.
    l: Matrix,
    /// Factored left-hand side (factor once, reuse every step).
    stepper: Stepper,
    /// Current state.
    x: Vec<f64>,
}

/// The argument check both constructors share; returns the state count.
fn check_args(
    g_shape: (usize, usize),
    c_shape: (usize, usize),
    b: &Matrix,
    l: &Matrix,
    h: f64,
) -> Result<usize> {
    if !(h > 0.0 && h.is_finite()) {
        return Err(LinalgError::InvalidArgument {
            what: "transient: step size must be positive and finite",
        });
    }
    if !(1.0 / h).is_finite() {
        return Err(LinalgError::InvalidArgument {
            what: "transient: step size is subnormal (1/h overflows)",
        });
    }
    let n = g_shape.0;
    if g_shape != (n, n) || c_shape != (n, n) || b.nrows() != n || l.ncols() != n {
        return Err(LinalgError::InvalidArgument {
            what: "transient: need G,C n×n, B n×m, L p×n",
        });
    }
    Ok(n)
}

impl TransientSolver {
    /// Builds a dense-backend solver with step size `h`, starting from the
    /// zero state.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::InvalidArgument`] if `h` is not strictly positive,
    ///   `1/h` is not finite (a subnormal `h`) or the matrix shapes are
    ///   inconsistent;
    /// - [`LinalgError::Singular`] if `C/h + G` cannot be factored.
    pub fn new(g: &Matrix, c: &Matrix, b: &Matrix, l: &Matrix, h: f64) -> Result<Self> {
        let n = check_args(g.shape(), c.shape(), b, l, h)?;
        let c_over_h = c.scaled(1.0 / h);
        let lhs = DenseLu::factor(&c_over_h.add(g)?)?;
        Ok(TransientSolver {
            b: b.clone(),
            l: l.clone(),
            stepper: Stepper::Dense { c_over_h, lhs },
            x: vec![0.0; n],
        })
    }

    /// Builds a sparse-backend solver: `C/h + G` is assembled over the
    /// pattern union, ordered for fill, and factored once by the sparse LU.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn new_sparse(
        g: &CscMatrix<f64>,
        c: &CscMatrix<f64>,
        b: &Matrix,
        l: &Matrix,
        h: f64,
    ) -> Result<Self> {
        let n = check_args(g.shape(), c.shape(), b, l, h)?;
        // G + (1/h)·C through the shifted pencil: the factorization reuses
        // the same symbolic machinery as the Krylov shifted solves.
        let lhs = ShiftedPencil::new(g, c)?.factor_real(1.0 / h)?;
        Ok(TransientSolver {
            b: b.clone(),
            l: l.clone(),
            stepper: Stepper::Sparse {
                c_over_h: c.scaled(1.0 / h),
                lhs,
            },
            x: vec![0.0; n],
        })
    }

    /// Builds a dense solver for the *reduced* model of a BDSM pipeline
    /// output (reduced systems are small and dense).
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn for_reduced(rm: &ReducedModel, h: f64) -> Result<Self> {
        TransientSolver::new(&rm.g, &rm.c, &rm.b, &rm.l, h)
    }

    /// Builds a sparse solver for the *full* (permuted) model of a BDSM
    /// pipeline output — the reference transient at grid scale.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn for_full(rm: &ReducedModel, h: f64) -> Result<Self> {
        TransientSolver::new_sparse(&rm.full.g, &rm.full.c, &rm.full.b, &rm.full.l, h)
    }

    /// Current state vector.
    pub fn state(&self) -> &[f64] {
        &self.x
    }

    /// Advances one backward-Euler step with input `u_next` (the input at
    /// the *end* of the step) and returns the output `y = L x⁺`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `u_next` has the wrong
    /// length.
    pub fn step(&mut self, u_next: &[f64]) -> Result<Vec<f64>> {
        if u_next.len() != self.b.ncols() {
            return Err(LinalgError::ShapeMismatch {
                op: "transient-step",
                lhs: (self.b.nrows(), self.b.ncols()),
                rhs: (u_next.len(), 1),
            });
        }
        // rhs = (C/h) x + B u⁺, solved against the factors computed at
        // construction time.
        let bu = self.b.matvec(u_next)?;
        self.x = self.stepper.advance(&self.x, &bu)?;
        self.l.matvec(&self.x)
    }

    /// Runs `steps` steps with a constant input, returning the outputs of
    /// every step (row per step).
    ///
    /// # Errors
    ///
    /// Propagates the first failing step.
    pub fn run_constant(&mut self, u: &[f64], steps: usize) -> Result<Vec<Vec<f64>>> {
        (0..steps).map(|_| self.step(u)).collect()
    }

    /// Runs one step per entry of `inputs` — each an input vector `u⁺` for
    /// that step — returning the per-step outputs. This is the
    /// waveform-at-a-time shape the ROM query layer serves: a batch of
    /// input trajectories fans out over solver clones, each driven through
    /// this method.
    ///
    /// # Errors
    ///
    /// Propagates the first failing step.
    pub fn run_series(&mut self, inputs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        inputs.iter().map(|u| self.step(u)).collect()
    }

    /// Resets the state to zero (the construction-time initial condition),
    /// so one factored solver can serve many independent transients.
    pub fn reset(&mut self) {
        self.x.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdsm_core::krylov::KrylovOpts;
    use bdsm_core::reduce::{reduce_network, ReductionOpts};
    use bdsm_core::synth::rc_ladder;

    #[test]
    fn one_pole_matches_analytic_decay() {
        // ẋ = −2x + u with x(0) = 0, u = 1: x(t) = (1 − e^{−2t})/2.
        let g = Matrix::from_rows(&[&[2.0]]);
        let c = Matrix::from_rows(&[&[1.0]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let l = Matrix::from_rows(&[&[1.0]]);
        let h = 1e-4;
        let mut sim = TransientSolver::new(&g, &c, &b, &l, h).unwrap();
        let steps = 10_000; // t = 1.0
        let ys = sim.run_constant(&[1.0], steps).unwrap();
        let analytic = (1.0 - (-2.0_f64).exp()) / 2.0;
        let got = ys.last().unwrap()[0];
        assert!(
            (got - analytic).abs() < 1e-4,
            "backward Euler drifted: {got} vs {analytic}"
        );
    }

    #[test]
    fn reduced_ladder_transient_tracks_full_model() {
        // Step response of a 40-bus RC ladder: the ROM transient must track
        // the full-model transient at the ports.
        let net = rc_ladder(40, 1.0, 1e-3, 2.0);
        let opts = ReductionOpts {
            num_blocks: 4,
            krylov: KrylovOpts {
                expansion_points: vec![1.0e2],
                jomega_points: vec![],
                moments_per_point: 4,
                deflation_tol: 1e-12,
                ortho: Default::default(),
            },
            rank_tol: 1e-12,
            max_reduced_dim: None,
            ..ReductionOpts::default()
        };
        let rm = reduce_network(&net, &opts).unwrap();
        let h = 1e-4;
        let mut full = TransientSolver::for_full(&rm, h).unwrap();
        let mut red = TransientSolver::for_reduced(&rm, h).unwrap();
        let u = [1.0, 0.0];
        let mut worst = 0.0_f64;
        for _ in 0..400 {
            let yf = full.step(&u).unwrap();
            let yr = red.step(&u).unwrap();
            let denom = bdsm_linalg::vector::norm2(&yf).max(1e-9);
            let diff: Vec<f64> = yf.iter().zip(&yr).map(|(a, b)| a - b).collect();
            worst = worst.max(bdsm_linalg::vector::norm2(&diff) / denom);
        }
        assert!(worst < 1e-4, "ROM transient diverged: {worst}");
    }

    #[test]
    fn exact_interface_rom_exposes_boundary_voltages() {
        // Under InterfacePolicy::Exact the ROM state vector carries the
        // interface-bus voltages verbatim: during a transient, reading the
        // mapped ROM coordinate must track the full model's interface
        // state — no basis reconstruction required.
        use bdsm_core::projector::InterfacePolicy;
        let net = rc_ladder(60, 1.0, 1e-3, 2.0);
        let opts = ReductionOpts {
            num_blocks: 3,
            krylov: KrylovOpts {
                expansion_points: vec![1.0e2],
                jomega_points: vec![],
                moments_per_point: 4,
                deflation_tol: 1e-12,
                ortho: Default::default(),
            },
            rank_tol: 1e-12,
            max_reduced_dim: None,
            interface_policy: InterfacePolicy::Exact,
            ..ReductionOpts::default()
        };
        let rm = reduce_network(&net, &opts).unwrap();
        let map = rm.interface_map.clone();
        assert!(!map.is_empty());
        let h = 1e-4;
        let mut full = TransientSolver::for_full(&rm, h).unwrap();
        let mut red = TransientSolver::for_reduced(&rm, h).unwrap();
        let u = [1.0, 0.0];
        let mut worst = 0.0_f64;
        for _ in 0..300 {
            full.step(&u).unwrap();
            red.step(&u).unwrap();
            let scale = full
                .state()
                .iter()
                .fold(0.0_f64, |m, &v| m.max(v.abs()))
                .max(1e-9);
            for &(row, col) in &map {
                worst = worst.max((red.state()[col] - full.state()[row]).abs() / scale);
            }
        }
        // Interior buses are less tightly matched than the ports the
        // moments target; 2e-3 relative still pins that the coordinate is
        // the boundary voltage and not an arbitrary mixed state.
        assert!(worst < 2e-3, "boundary trajectory diverged: {worst}");
    }

    #[test]
    fn sparse_and_dense_backends_step_identically() {
        // Same model through both factorizations: trajectories must agree
        // to solver roundoff, step for step.
        let net = rc_ladder(25, 1.0, 1e-3, 2.0);
        let desc = bdsm_circuit::mna::assemble(&net).unwrap();
        let (g, c) = (desc.g, desc.c);
        let (b, l) = (desc.b, desc.l);
        let h = 1e-3;
        let mut dense = TransientSolver::new(&g.to_dense(), &c.to_dense(), &b, &l, h).unwrap();
        let mut sparse = TransientSolver::new_sparse(&g, &c, &b, &l, h).unwrap();
        let u = [1.0, 0.0];
        for step in 0..100 {
            let yd = dense.step(&u).unwrap();
            let ys = sparse.step(&u).unwrap();
            let diff: Vec<f64> = yd.iter().zip(&ys).map(|(a, b)| a - b).collect();
            let denom = bdsm_linalg::vector::norm2(&yd).max(1e-12);
            assert!(
                bdsm_linalg::vector::norm2(&diff) / denom < 1e-10,
                "backends diverged at step {step}"
            );
        }
    }

    #[test]
    fn run_series_matches_stepwise_and_reset_restarts() {
        let g = Matrix::from_rows(&[&[2.0]]);
        let c = Matrix::from_rows(&[&[1.0]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let l = Matrix::from_rows(&[&[1.0]]);
        let inputs: Vec<Vec<f64>> = (0..50).map(|i| vec![(0.1 * i as f64).sin()]).collect();
        let mut a = TransientSolver::new(&g, &c, &b, &l, 1e-2).unwrap();
        let mut bsim = a.clone();
        let series = a.run_series(&inputs).unwrap();
        for (step, u) in inputs.iter().enumerate() {
            assert_eq!(series[step], bsim.step(u).unwrap(), "step {step}");
        }
        // Reset: rerunning the same waveform reproduces it bit for bit.
        a.reset();
        assert_eq!(a.state(), &[0.0]);
        assert_eq!(a.run_series(&inputs).unwrap(), series);
    }

    #[test]
    fn sparse_constructor_validates_inputs() {
        use bdsm_sparse::CscMatrix;
        let g = CscMatrix::from_dense(&Matrix::identity(2), 0.0);
        let c = CscMatrix::from_dense(&Matrix::identity(2), 0.0);
        let b = Matrix::from_fn(2, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let l = b.transpose();
        assert!(TransientSolver::new_sparse(&g, &c, &b, &l, 0.0).is_err());
        assert!(TransientSolver::new_sparse(&g, &c, &b, &Matrix::zeros(1, 3), 0.1).is_err());
        let c3 = CscMatrix::from_dense(&Matrix::identity(3), 0.0);
        assert!(TransientSolver::new_sparse(&g, &c3, &b, &l, 0.1).is_err());
    }

    #[test]
    fn subnormal_steps_are_refused_by_both_backends() {
        let g = Matrix::identity(2);
        let c = Matrix::identity(2);
        let (gs, cs) = (
            CscMatrix::from_dense(&g, 0.0),
            CscMatrix::from_dense(&c, 0.0),
        );
        let b = Matrix::from_fn(2, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let l = b.transpose();
        for h in [1e-310, 5e-324] {
            for r in [
                TransientSolver::new(&g, &c, &b, &l, h),
                TransientSolver::new_sparse(&gs, &cs, &b, &l, h),
            ] {
                assert!(
                    matches!(r, Err(LinalgError::InvalidArgument { .. })),
                    "h = {h:e}: {r:?}"
                );
            }
        }
        // A normal step as small as 1e-300 still factors and steps.
        for mut sim in [
            TransientSolver::new(&g, &c, &b, &l, 1e-300).unwrap(),
            TransientSolver::new_sparse(&gs, &cs, &b, &l, 1e-300).unwrap(),
        ] {
            let y = sim.step(&[1.0]).unwrap();
            assert!(y[0] > 0.0 && y[0] <= 1e-300, "{y:?}");
        }
    }

    #[test]
    fn state_accessors_and_validation() {
        let g = Matrix::identity(2);
        let c = Matrix::identity(2);
        let b = Matrix::from_fn(2, 1, |i, _| if i == 0 { 1.0 } else { 0.0 });
        let l = b.transpose();
        let mut sim = TransientSolver::new(&g, &c, &b, &l, 0.1).unwrap();
        assert_eq!(sim.state(), &[0.0, 0.0]);
        assert!(sim.step(&[1.0, 2.0]).is_err());
        assert!(TransientSolver::new(&g, &c, &b, &l, 0.0).is_err());
        assert!(TransientSolver::new(&g, &c, &b, &Matrix::zeros(1, 3), 0.1).is_err());
    }
}
