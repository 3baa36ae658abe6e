//! Compressed sparse column (CSC) storage.
//!
//! CSC is the native layout of left-looking LU: the factorization walks
//! columns of `A` and appends columns of `L` and `U`, and triangular solves
//! stream through columns with unit stride. Construction goes through
//! triplets with duplicate summing — the MNA stamp table itself, which
//! `bdsm_circuit::mna::assemble` compresses straight into this type.

use crate::scalar::Scalar;
use bdsm_linalg::{Complex64, LinalgError, Matrix, Result};

/// A sparse matrix in compressed sparse column format.
///
/// Within each column the row indices are strictly increasing; explicit
/// zeros created by duplicate cancellation are dropped at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix<T: Scalar> {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` spans column `j` in `row_idx`/`values`.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Builds from triplets, summing duplicates and dropping exact zeros.
    ///
    /// The duplicates of a position are summed in the order they appear in
    /// `triplets` (the column sort is stable), so the bits of a sum depend
    /// only on the stamp order — never on how rows or columns are numbered.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if any triplet is out of
    /// bounds.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, T)],
    ) -> Result<Self> {
        for &(i, j, _) in triplets {
            if i >= nrows || j >= ncols {
                return Err(LinalgError::InvalidArgument {
                    what: "csc: triplet position out of bounds",
                });
            }
        }
        // Count per column, prefix-sum, then counting-sort the triplets.
        let mut counts = vec![0usize; ncols + 1];
        for &(_, j, _) in triplets {
            counts[j + 1] += 1;
        }
        for j in 0..ncols {
            counts[j + 1] += counts[j];
        }
        let mut rows = vec![0usize; triplets.len()];
        let mut vals = vec![T::ZERO; triplets.len()];
        let mut next = counts.clone();
        for &(i, j, v) in triplets {
            let slot = next[j];
            next[j] += 1;
            rows[slot] = i;
            vals[slot] = v;
        }
        // Sort each column by row and merge duplicates.
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(usize, T)> = Vec::new();
        for j in 0..ncols {
            scratch.clear();
            scratch.extend(
                rows[counts[j]..counts[j + 1]]
                    .iter()
                    .copied()
                    .zip(vals[counts[j]..counts[j + 1]].iter().copied()),
            );
            scratch.sort_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < scratch.len() {
                let (r, mut acc) = scratch[k];
                k += 1;
                while k < scratch.len() && scratch[k].0 == r {
                    acc += scratch[k].1;
                    k += 1;
                }
                if !acc.is_zero() {
                    row_idx.push(r);
                    values.push(acc);
                }
            }
            col_ptr[j + 1] = row_idx.len();
        }
        Ok(CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Borrows the raw CSC arrays `(col_ptr, row_idx, values)` — the
    /// zero-copy handoff to the factorization kernels.
    #[inline]
    pub(crate) fn parts(&self) -> (&[usize], &[usize], &[T]) {
        (&self.col_ptr, &self.row_idx, &self.values)
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

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Row indices of column `j` (strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Values of column `j`, aligned with [`col_rows`](Self::col_rows).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn col_values(&self, j: usize) -> &[T] {
        &self.values[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Value at `(i, j)`, zero when not stored.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.nrows && j < self.ncols, "csc: get out of bounds");
        match self.col_rows(j).binary_search(&i) {
            Ok(pos) => self.col_values(j)[pos],
            Err(_) => T::ZERO,
        }
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != ncols`.
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>> {
        if x.len() != self.ncols {
            return Err(LinalgError::ShapeMismatch {
                op: "csc-matvec",
                lhs: (self.nrows, self.ncols),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![T::ZERO; self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            if xj.is_zero() {
                continue;
            }
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                y[i] += v * xj;
            }
        }
        Ok(y)
    }

    /// Transpose (also the conversion between CSC and CSR views).
    pub fn transpose(&self) -> CscMatrix<T> {
        let mut counts = vec![0usize; self.nrows + 1];
        for &i in &self.row_idx {
            counts[i + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let col_ptr = counts.clone();
        let mut next = counts;
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        // Walking source columns in order leaves each transposed column
        // already sorted by (source-column) row index.
        for j in 0..self.ncols {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                let slot = next[i];
                next[i] += 1;
                row_idx[slot] = j;
                values[slot] = v;
            }
        }
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Copy with every value scaled by a real factor.
    pub fn scaled(&self, k: f64) -> CscMatrix<T> {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = v.scale(k);
        }
        out
    }

    /// Symmetric renumbering of a square matrix: entry `(i, j)` moves to
    /// `(new_of_old[i], new_of_old[j])`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices and
    /// [`LinalgError::InvalidArgument`] on a length mismatch.
    pub fn permute_symmetric(&self, new_of_old: &[usize]) -> Result<CscMatrix<T>> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        if new_of_old.len() != self.nrows {
            return Err(LinalgError::InvalidArgument {
                what: "csc: permutation length mismatch",
            });
        }
        let mut triplets = Vec::with_capacity(self.nnz());
        for j in 0..self.ncols {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                triplets.push((new_of_old[i], new_of_old[j], v));
            }
        }
        CscMatrix::from_triplets(self.nrows, self.ncols, &triplets)
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.ncols).flat_map(move |j| {
            self.col_rows(j)
                .iter()
                .zip(self.col_values(j))
                .map(move |(&i, &v)| (i, j, v))
        })
    }
}

impl CscMatrix<f64> {
    /// Converts a dense matrix, keeping entries with `|aᵢⱼ| > drop_tol`.
    pub fn from_dense(a: &Matrix, drop_tol: f64) -> CscMatrix<f64> {
        let mut triplets = Vec::new();
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                if a[(i, j)].abs() > drop_tol {
                    triplets.push((i, j, a[(i, j)]));
                }
            }
        }
        CscMatrix::from_triplets(a.nrows(), a.ncols(), &triplets)
            .expect("triplets from a dense matrix are in bounds")
    }

    /// Densifies into a `bdsm_linalg::Matrix`.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            m[(i, j)] = v;
        }
        m
    }

    /// Real-matrix × complex-vector product, the `C·v` step of shifted
    /// Krylov recurrences at `s = jω`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != ncols`.
    pub fn matvec_complex(&self, x: &[Complex64]) -> Result<Vec<Complex64>> {
        if x.len() != self.ncols {
            return Err(LinalgError::ShapeMismatch {
                op: "csc-matvec-complex",
                lhs: (self.nrows, self.ncols),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![Complex64::ZERO; self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                y[i] += xj * v;
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CscMatrix<f64> {
        // [[2, 0, 1], [0, 3, 0], [4, 0, -1]]
        CscMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (2, 0, 4.0),
                (1, 1, 3.0),
                (0, 2, 1.0),
                (2, 2, -1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn triplets_sum_duplicates_and_drop_zeros() {
        let a =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 1.5), (0, 0, 2.5), (1, 1, 1.0), (1, 1, -1.0)])
                .unwrap();
        assert_eq!(a.nnz(), 1); // the (1,1) pair cancelled exactly
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn out_of_bounds_triplet_rejected() {
        assert!(CscMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CscMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn rows_sorted_within_columns() {
        let a = CscMatrix::from_triplets(4, 1, &[(3, 0, 1.0), (0, 0, 2.0), (2, 0, 3.0)]).unwrap();
        assert_eq!(a.col_rows(0), &[0, 2, 3]);
        assert_eq!(a.col_values(0), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = demo();
        let x = [1.0, 2.0, 3.0];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, a.to_dense().matvec(&x).unwrap());
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = demo();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        let at = a.transpose();
        for (i, j, v) in a.iter() {
            assert_eq!(at.get(j, i), v);
        }
    }

    #[test]
    fn dense_roundtrip_and_scaling() {
        let a = demo();
        let back = CscMatrix::from_dense(&a.to_dense(), 0.0);
        assert_eq!(a, back);
        assert_eq!(a.scaled(2.0).get(2, 0), 8.0);
    }

    #[test]
    fn symmetric_permutation_moves_entries() {
        let a = demo();
        let p = a.permute_symmetric(&[2, 1, 0]).unwrap();
        for (i, j, v) in a.iter() {
            assert_eq!(p.get(2 - i, 2 - j), v);
        }
        assert!(a.permute_symmetric(&[0, 1]).is_err());
        let rect = CscMatrix::<f64>::from_triplets(2, 3, &[]).unwrap();
        assert!(rect.permute_symmetric(&[0, 1]).is_err());
    }

    #[test]
    fn complex_matvec_applies_real_matrix() {
        let a = demo();
        let x = [
            Complex64::new(1.0, 1.0),
            Complex64::new(0.0, 2.0),
            Complex64::new(-1.0, 0.0),
        ];
        let y = a.matvec_complex(&x).unwrap();
        // Row 0: 2·(1+i) + 1·(−1) = 1 + 2i.
        assert_eq!(y[0], Complex64::new(1.0, 2.0));
        // Row 2: 4·(1+i) − 1·(−1) = 5 + 4i.
        assert_eq!(y[2], Complex64::new(5.0, 4.0));
        assert!(a.matvec_complex(&x[..2]).is_err());
    }
}
