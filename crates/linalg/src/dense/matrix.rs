//! Row-major dense real matrix.

use crate::error::{LinalgError, Result};
use crate::vector;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// This type carries the ROM-side dense math of the reproduction: congruence
/// products `Vᵀ A V`, projected input/output matrices, and the small
/// factorizations of Sec. III-D. It favours clarity and predictable memory
/// layout over BLAS-level tuning; the sizes involved (≤ a few thousand) keep
/// the naive triple loop adequate.
///
/// # Examples
///
/// ```
/// use bdsm_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut m = Matrix::zeros(nrows, ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            m.row_mut(i).copy_from_slice(r);
        }
        m
    }

    /// Builds a matrix whose columns are the given vectors.
    ///
    /// This is the natural constructor for Krylov bases assembled column by
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lengths.
    pub fn from_cols(cols: &[Vec<f64>]) -> Self {
        let ncols = cols.len();
        let nrows = cols.first().map_or(0, |c| c.len());
        let mut m = Matrix::zeros(nrows, ncols);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), nrows, "from_cols: ragged columns");
            for i in 0..nrows {
                m[(i, j)] = c[i];
            }
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::InvalidArgument {
                what: "from_vec: buffer length must equal nrows * ncols",
            });
        }
        Ok(Matrix { nrows, ncols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `Ok` when every entry is finite, else
    /// [`LinalgError::InvalidArgument`] naming `what`: the dense
    /// decompositions refuse NaN and ±∞ instead of returning values
    /// computed from them.
    pub(crate) fn require_finite(&self, what: &'static str) -> Result<()> {
        if self.data.iter().all(|v| v.is_finite()) {
            Ok(())
        } else {
            Err(LinalgError::InvalidArgument { what })
        }
    }

    /// Mutable underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.ncols != rhs.nrows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.nrows, rhs.ncols);
        // Row-major C = A·B is column-major Cᵀ = Bᵀ·Aᵀ, and a row-major
        // buffer *is* its transpose read column-major — so the blocked
        // column-major kernel applies directly with swapped operands.
        let (m, k, n) = (self.nrows, self.ncols, rhs.ncols);
        crate::dense::gemm::gemm_acc(
            n,
            k,
            m,
            rhs.as_slice(),
            n,
            self.as_slice(),
            k,
            out.as_mut_slice(),
            n,
        );
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.nrows)
            .map(|i| vector::dot(self.row(i), x))
            .collect())
    }

    /// Sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        Ok(out)
    }

    /// Difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= r;
        }
        Ok(out)
    }

    /// Scaled copy `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        for v in out.data.iter_mut() {
            *v *= alpha;
        }
        out
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        vector::norm_inf(&self.data)
    }

    /// Writes `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.nrows <= self.nrows && c0 + block.ncols <= self.ncols);
        for i in 0..block.nrows {
            for j in 0..block.ncols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.ncols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>12.4e}", self[(i, j)])?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.ncols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_identity_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(!z.is_square());
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert!(i.is_square());
    }

    #[test]
    fn from_rows_and_cols_agree() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_cols(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(
            a.transpose().matvec(&[1.0, 1.0, 1.0]).unwrap(),
            vec![9.0, 12.0]
        );
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.transpose().matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involutive() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_scaled() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a).unwrap(), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scaled(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn col_accessors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn norms_and_nnz() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn submatrix_and_set_block() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = Matrix::from_fn(2, 2, |i, j| a[(1 + i, 2 + j)]);
        assert_eq!(s, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
        let mut z = Matrix::zeros(4, 4);
        z.set_block(2, 2, &s);
        assert_eq!(z[(2, 2)], 6.0);
        assert_eq!(z[(3, 3)], 11.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let a = Matrix::identity(2);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 2x2"));
    }
}
