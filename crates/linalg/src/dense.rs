//! Small row-major dense matrices.
//!
//! Used for the `m × l` subspace bases and `l × l` core matrices of the
//! randomized SVD, where `l = k + oversampling` is a few dozen. The two
//! kernels that run over the tall `m × l` bases — [`Matrix::matmul`] by a
//! small right-hand side and the Gram matrix `YᵀY` — are row-parallel and
//! bit-identical for every thread count; nothing else is tuned.

use crate::par;
use crate::vector;
use std::ops::Range;

/// Rows per partial Gram matrix. Fixed, so summing the partials in block
/// order gives the same `YᵀY` for every thread count.
const GRAM_BLOCK: usize = 4096;

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        Matrix { rows, cols, data }
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

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Writes `values` into column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows`.
    pub fn set_col(&mut self, c: usize, values: &[f64]) {
        assert_eq!(values.len(), self.rows, "set_col: length mismatch");
        for (r, &v) in values.iter().enumerate() {
            self[(r, c)] = v;
        }
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.matmul_with(rhs, par::threads_for(self.rows))
    }

    /// [`Matrix::matmul`] on `threads` threads; the result does not depend
    /// on `threads`.
    pub(crate) fn matmul_with(&self, rhs: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams rhs rows, friendly to the row-major layout.
        par::for_each_row(out.as_mut_slice(), rhs.cols, threads, |i, orow| {
            for (k, &a) in self.row(i).iter().enumerate() {
                if a != 0.0 {
                    vector::axpy(a, rhs.row(k), orow);
                }
            }
        });
        out
    }

    /// The Gram matrix `G = selfᵀ · self` (`cols × cols`, symmetric) on
    /// `threads` threads. Partial Grams over fixed [`GRAM_BLOCK`]-row blocks
    /// are computed in parallel and summed in block order, so the result
    /// does not depend on `threads`.
    pub(crate) fn gram_with(&self, threads: usize) -> Matrix {
        let (m, l) = (self.rows, self.cols);
        if l == 0 {
            return Matrix::zeros(0, 0);
        }
        let mut partials = vec![0.0; m.div_ceil(GRAM_BLOCK) * l * l];
        par::for_each_row(&mut partials, l * l, threads, |b, g| {
            let start = b * GRAM_BLOCK;
            self.gram_block(start..(start + GRAM_BLOCK).min(m), g);
        });
        let mut g = Matrix::zeros(l, l);
        for partial in partials.chunks_exact(l * l) {
            for (gi, pi) in g.data.iter_mut().zip(partial) {
                *gi += pi;
            }
        }
        for i in 0..l {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Adds the upper triangle of `Y[rows]ᵀ · Y[rows]` into the row-major
    /// `cols × cols` buffer `g`, four rows of `Y` per sweep over `g`.
    fn gram_block(&self, rows: Range<usize>, g: &mut [f64]) {
        let l = self.cols;
        let block = &self.data[rows.start * l..rows.end * l];
        let mut quads = block.chunks_exact(4 * l);
        for quad in &mut quads {
            let (y0, rest) = quad.split_at(l);
            let (y1, rest) = rest.split_at(l);
            let (y2, y3) = rest.split_at(l);
            for i in 0..l {
                let (a0, a1, a2, a3) = (y0[i], y1[i], y2[i], y3[i]);
                let gi = &mut g[i * l + i..(i + 1) * l];
                let cols = y0[i..].iter().zip(&y1[i..]).zip(&y2[i..]).zip(&y3[i..]);
                for (gij, (((b0, b1), b2), b3)) in gi.iter_mut().zip(cols) {
                    *gij += a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3;
                }
            }
        }
        for y in quads.remainder().chunks_exact(l) {
            for i in 0..l {
                vector::axpy(y[i], &y[i..], &mut g[i * l + i..(i + 1) * l]);
            }
        }
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        (0..self.rows).map(|r| vector::dot(self.row(r), x)).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::dot(&self.data, &self.data).sqrt()
    }

    /// Largest absolute entry difference against `other` (shape must match).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff: shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{bits, fixture_dense};

    #[test]
    fn gram_matches_transpose_product() {
        for (rows, cols) in [(1, 1), (3, 2), (7, 5), (2 * GRAM_BLOCK + 9, 6)] {
            let y = fixture_dense(rows, cols, 3);
            let want = y.transpose().matmul(&y);
            let got = y.gram_with(1);
            let scale = want.frobenius_norm();
            assert!(got.max_abs_diff(&want) <= 1e-12 * scale, "{rows}×{cols}");
            assert_eq!(got, got.transpose(), "G must be symmetric");
        }
        assert_eq!(Matrix::zeros(4, 0).gram_with(2).rows(), 0);
    }

    #[test]
    fn tall_kernels_are_bit_identical_at_any_thread_count() {
        let y = fixture_dense(2 * GRAM_BLOCK + 3, 9, 5);
        let w = fixture_dense(9, 4, 6);
        let (gram, product) = (bits(&y.gram_with(1)), bits(&y.matmul_with(&w, 1)));
        for threads in 2..=3 {
            assert_eq!(bits(&y.gram_with(threads)), gram, "{threads} threads");
            let got = bits(&y.matmul_with(&w, threads));
            assert_eq!(got, product, "{threads} threads");
        }
    }

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Matrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_and_row_col_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn set_col_round_trips() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 2, |r, c| (r + c * 7) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(1, 2)], m[(2, 1)]);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Matrix::identity(2);
        let mut b = Matrix::identity(2);
        b[(0, 1)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
