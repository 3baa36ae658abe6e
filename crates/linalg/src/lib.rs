//! Dense linear-algebra substrate for the BDSM reproduction.
//!
//! This crate carries all of the scalar-level math the reduction pipeline
//! needs: a row-major dense [`Matrix`], a real LU factorization
//! ([`DenseLu`]), a QR-first Jacobi SVD ([`Svd`], which owns the one
//! Householder QR), Jacobi symmetric eigendecomposition ([`SymEig`]), the
//! cache-blocked `gemm` / block-projection kernels, and a self-contained
//! [`Complex64`] type (the dependency set does not include `num-complex`).
//!
//! # Examples
//!
//! ```
//! use bdsm_linalg::{Complex64, DenseLu, Matrix};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = DenseLu::factor(&a)?.solve(&[1.0, 2.0])?;
//! let r = a.matvec(&x)?;
//! assert!((r[0] - 1.0).abs() < 1e-14 && (r[1] - 2.0).abs() < 1e-14);
//!
//! let s = Complex64::jomega(2.0e3);
//! assert_eq!(s.conj(), Complex64::new(0.0, -2.0e3));
//! # Ok::<(), bdsm_linalg::LinalgError>(())
//! ```

// Numeric kernels here are written as explicit index loops over
// factor-in-place buffers; the iterator rewrites clippy suggests obscure the
// triangular access patterns.
#![allow(clippy::needless_range_loop)]

pub mod complex;
pub mod dense;
pub mod error;
pub mod vector;

pub use complex::Complex64;
pub use dense::{
    block_project, gemm_acc, gemm_sub, gemm_tn_acc, sym_eig_extremes, sym_min_eig, trsv_unit_lower,
    DenseLu, GemmScalar, Matrix, Svd, SymEig,
};
pub use error::{LinalgError, Result};
