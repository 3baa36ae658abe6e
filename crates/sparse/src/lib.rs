//! Sparse factorization subsystem for the BDSM reproduction.
//!
//! MNA assembly (`bdsm_circuit::mna`) stamps `G` and `C` straight into
//! [`CscMatrix`], and every shifted solve of the pipeline factors that
//! storage without densifying — a dense factorization is an `O(n²)`
//! memory and `O(n³)` time wall around a thousand states. Three layers,
//! all dependency-free and generic over real (`f64`) and complex
//! ([`bdsm_linalg::Complex64`]) scalars:
//!
//! - [`CscMatrix`] — compressed sparse column storage built from triplets
//!   (duplicates summed in triplet order), transpose, matvec, and
//!   symmetric permutation;
//! - [`ordering`] — fill-reducing symmetric orderings: approximate minimum
//!   degree ([`ordering::amd_order`]), level-set nested dissection
//!   ([`ordering::nd_order`]) and reverse Cuthill–McKee
//!   ([`ordering::rcm_order`]); the default keeps whichever of the first
//!   two has the smaller symbolic factor ([`ordering::symbolic_fill`]) on
//!   the pattern at hand;
//! - [`SparseLu`] — left-looking (Gilbert–Peierls) sparse LU with
//!   threshold partial pivoting, and [`ShiftedPencil`], which computes the
//!   pattern union and ordering of `G + sC` once and refactors numerically
//!   per shift — the shape of Krylov multi-point solves, `jω` sweeps, and
//!   transient time stepping.
//!
//! # Examples
//!
//! Assemble a small conductance matrix from triplets, factor it, and
//! solve — the CSC→LU→solve path every hot loop in the workspace takes:
//!
//! ```
//! use bdsm_sparse::{CscMatrix, ShiftedPencil, SparseLu};
//!
//! // 1D resistor chain with grounded ends: tridiagonal, SPD.
//! let n = 8;
//! let mut triplets = Vec::new();
//! for i in 0..n {
//!     triplets.push((i, i, 2.0));
//!     if i + 1 < n {
//!         triplets.push((i, i + 1, -1.0));
//!         triplets.push((i + 1, i, -1.0));
//!     }
//! }
//! let g = CscMatrix::from_triplets(n, n, &triplets)?;
//! assert_eq!(g.nnz(), 3 * n - 2);
//!
//! // Factor (default fill-reducing ordering) and solve G x = b.
//! let b = vec![1.0; n];
//! let x = SparseLu::factor(&g)?.solve(&b)?;
//! let r = g.matvec(&x)?;
//! assert!(r.iter().zip(&b).all(|(ri, bi)| (ri - bi).abs() < 1e-12));
//!
//! // Shifted solves G + sC reuse the symbolic analysis across shifts.
//! let c = CscMatrix::from_triplets(n, n, &(0..n).map(|i| (i, i, 1e-3)).collect::<Vec<_>>())?;
//! let pencil = ShiftedPencil::new(&g, &c)?;
//! for s in [0.0, 1.0e2, 1.0e4] {
//!     let lu = pencil.factor_real(s)?;
//!     assert_eq!(lu.dim(), n);
//! }
//! # Ok::<(), bdsm_linalg::LinalgError>(())
//! ```

// Sparse kernels are written as explicit index loops over col_ptr/row_idx
// buffers; the iterator rewrites clippy suggests obscure the CSC access
// patterns (same policy as bdsm-linalg).
#![allow(clippy::needless_range_loop)]

pub mod csc;
pub mod lu;
pub mod ordering;
pub mod scalar;

pub use csc::CscMatrix;
pub use lu::{LuWorkspace, NumericKernel, ShiftedPencil, SparseLu};
pub use ordering::FillOrdering;
pub use scalar::Scalar;
