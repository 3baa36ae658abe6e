//! Error types for the linear-algebra substrate.

use std::fmt;

/// Errors produced by dense and sparse linear-algebra routines.
///
/// All numerical kernels in this crate report failure through this type so
/// that higher layers (MOR, simulation) can attach circuit-level context.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible (e.g. mat-mul inner dimensions).
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A factorization met a pivot it cannot divide by: exactly zero (a
    /// singular matrix) or NaN (a non-finite entry in the input).
    Singular {
        /// Pivot index at which singularity was detected.
        at: usize,
    },
    /// An iterative method failed to reach the requested tolerance.
    NotConverged {
        /// Name of the iterative method.
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
        /// Residual norm (or off-diagonal norm) at the final iteration.
        residual: f64,
    },
    /// The matrix is not square but the operation requires it.
    NotSquare {
        /// Actual shape encountered.
        shape: (usize, usize),
    },
    /// Invalid argument (bad tolerance, zero dimension where forbidden, ...).
    InvalidArgument {
        /// Description of the offending argument.
        what: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular { at } => {
                write!(f, "matrix is singular (zero or NaN pivot at index {at})")
            }
            LinalgError::NotConverged {
                method,
                iterations,
                residual,
            } => write!(
                f,
                "{method} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix is {}x{} but must be square", shape.0, shape.1)
            }
            LinalgError::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "shape mismatch in matmul: left is 2x3, right is 4x5"
        );
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular { at: 7 };
        assert!(e.to_string().contains("index 7"));
    }

    #[test]
    fn display_not_converged() {
        let e = LinalgError::NotConverged {
            method: "gmres",
            iterations: 100,
            residual: 1e-3,
        };
        let s = e.to_string();
        assert!(s.contains("gmres") && s.contains("100"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<LinalgError>();
    }
}
