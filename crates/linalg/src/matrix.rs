//! Column-major dense matrices (the BLAS/LAPACK storage convention).

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, column-major matrix over a [`Scalar`] type.
#[derive(Clone, PartialEq)]
pub struct Matrix<S> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Build from an element function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a row-major nested slice (for readable test fixtures).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[S]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self::from_fn(r, c, |i, j| rows[i][j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for square matrices.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw column-major data.
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable raw column-major data.
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Copy a contiguous block into a new matrix.
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix<S> {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block out of range"
        );
        Matrix::from_fn(rows, cols, |i, j| self[(row0 + i, col0 + j)])
    }

    /// Largest elementwise |aᵢⱼ − bᵢⱼ|.
    pub fn max_abs_diff(&self, other: &Matrix<S>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Reference (naive triple-loop) matrix product, used as the oracle for
    /// the optimised GEMM.
    pub fn matmul_ref(&self, other: &Matrix<S>) -> Matrix<S> {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for k in 0..self.cols {
                let bkj = other[(k, j)];
                for i in 0..self.rows {
                    let prod = self[(i, k)] * bkj;
                    out[(i, j)] += prod;
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random matrix (splitmix64 driven), useful in
    /// tests and benches without threading an RNG through.
    pub fn seeded_random(rows: usize, cols: usize, seed: u64) -> Matrix<S> {
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z = z ^ (z >> 31);
            // Map to (-1, 1).
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        Matrix::from_fn(rows, cols, |_, _| S::from_f64(next()))
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl<S: Scalar> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_is_column_major() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // Column 0 first: (0,0), (1,0), then column 1: (0,1), (1,1) ...
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Matrix::<f64>::seeded_random(5, 5, 42);
        let i5 = Matrix::<f64>::identity(5);
        assert!(i5.matmul_ref(&a).max_abs_diff(&a) < 1e-14);
        assert!(a.matmul_ref(&i5).max_abs_diff(&a) < 1e-14);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn block_copies_the_window() {
        let a = Matrix::<f64>::seeded_random(6, 6, 9);
        let b = a.block(1, 2, 3, 4);
        assert_eq!((b.rows(), b.cols()), (3, 4));
        for j in 0..4 {
            for i in 0..3 {
                assert_eq!(b[(i, j)], a[(1 + i, 2 + j)]);
            }
        }
    }

    #[test]
    fn matmul_ref_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul_ref(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let a = Matrix::<f64>::seeded_random(3, 3, 5);
        let b = Matrix::<f64>::seeded_random(3, 3, 5);
        let c = Matrix::<f64>::seeded_random(3, 3, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }
}
