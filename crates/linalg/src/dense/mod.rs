//! Dense kernels: matrix storage, factorizations, and spectral routines.

pub mod blockqr;
pub mod eig_sym;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod svd;

pub use blockqr::{block_project, gemm_tn_acc};
pub use eig_sym::{sym_eig_extremes, sym_min_eig, SymEig};
pub use gemm::{gemm_acc, gemm_sub, trsv_unit_lower, GemmScalar};
pub use lu::DenseLu;
pub use matrix::Matrix;
pub use svd::Svd;
