//! Compressed sparse row matrices.
//!
//! The bipartite adjacency matrix `W ∈ R^{|U| × |V|}` of a transaction graph
//! is extremely sparse (a few edges per user). All the spectral baselines
//! need from it are matrix–vector and matrix–(tall dense) products with `W`
//! and `Wᵀ`, which CSR provides in O(nnz · l). The dense products are
//! row-parallel gathers: `Wᵀ·X` runs over the transposed CSR, so each output
//! row is written by one thread, summed in the same order as a serial
//! scatter, and the result is bit-identical for every thread count.

use crate::dense::Matrix;
use crate::par;

/// Sparse matrix in CSR form.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from COO triplets `(row, col, value)`. Duplicate coordinates
    /// are summed.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows, "row {r} out of range ({rows} rows)");
            assert!((c as usize) < cols, "col {c} out of range ({cols} cols)");
        }
        // Counting sort by row.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut sorted: Vec<(u32, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            sorted[cursor[r as usize]] = (c, v);
            cursor[r as usize] += 1;
        }
        // Within each row: sort by column and merge duplicates.
        let mut row_offsets = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let row = &mut sorted[counts[r]..counts[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                if let Some(&last) = col_idx.last() {
                    if values.len() > row_offsets[r] && last == c {
                        *values.last_mut().expect("nonempty") += v;
                        continue;
                    }
                }
                col_idx.push(c);
                values.push(v);
            }
            row_offsets[r + 1] = col_idx.len();
        }

        CsrMatrix {
            rows,
            cols,
            row_offsets,
            col_idx,
            values,
        }
    }

    /// Builds an unweighted (all-ones) matrix from edge coordinates.
    pub fn from_edges(rows: usize, cols: usize, edges: &[(u32, u32)]) -> Self {
        let triplets: Vec<(u32, u32, f64)> = edges.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        Self::from_triplets(rows, cols, &triplets)
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

    /// Number of stored nonzeros (after duplicate merging).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates the nonzeros of row `r` as `(col, value)`.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = self.row_offsets[r]..self.row_offsets[r + 1];
        self.col_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// `y = A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row(r) {
                acc += v * x[c as usize];
            }
            *yr = acc;
        }
        y
    }

    /// `y = Aᵀ · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transpose: length mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row(r) {
                y[c as usize] += v * xr;
            }
        }
        y
    }

    /// `Y = A · X` for a tall dense `X` (cols × l). Output is rows × l.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != cols`.
    pub fn mat_dense(&self, x: &Matrix) -> Matrix {
        self.mat_dense_with(x, par::threads_for(self.rows))
    }

    /// [`CsrMatrix::mat_dense`] on `threads` threads; the result does not
    /// depend on `threads`.
    pub(crate) fn mat_dense_with(&self, x: &Matrix, threads: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.mat_dense_into(x, &mut out, threads);
        out
    }

    /// [`CsrMatrix::mat_dense_with`] into an existing `rows × l` buffer,
    /// which is overwritten: a tall product reuses its pages instead of
    /// faulting in fresh ones.
    pub(crate) fn mat_dense_into(&self, x: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(x.rows(), self.cols, "mat_dense: shape mismatch");
        assert_eq!(
            (out.rows(), out.cols()),
            (self.rows, x.cols()),
            "mat_dense: output shape mismatch"
        );
        par::for_each_row(out.as_mut_slice(), x.cols(), threads, |r, orow| {
            // Row r of the output is a weighted sum of X's rows.
            orow.fill(0.0);
            for (c, v) in self.row(r) {
                for (o, xv) in orow.iter_mut().zip(x.row(c as usize)) {
                    *o += v * xv;
                }
            }
        });
    }

    /// `Y = Aᵀ · X` for a tall dense `X` (rows × l). Output is cols × l.
    ///
    /// Builds the transpose on every call; callers that multiply by `Aᵀ`
    /// repeatedly should build it once.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != rows`.
    pub fn mat_dense_transpose(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.rows, "mat_dense_transpose: shape mismatch");
        self.transpose().mat_dense(x)
    }

    /// `Aᵀ` in CSR form. Each row of the transpose lists its entries in
    /// ascending column (= original row) order, so a gather over it sums
    /// every output entry in the order a row-by-row scatter over `A` would.
    pub(crate) fn transpose(&self) -> CsrMatrix {
        let mut row_offsets = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_offsets[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            row_offsets[i + 1] += row_offsets[i];
        }
        let mut cursor = row_offsets[..self.cols].to_vec();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let slot = &mut cursor[c as usize];
                col_idx[*slot] = r as u32;
                values[*slot] = v;
                *slot += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_offsets,
            col_idx,
            values,
        }
    }

    /// Materializes as dense — for tests on tiny matrices only.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m[(r, c as usize)] += v;
            }
        }
        m
    }

    /// Squared Euclidean norm of each row — FBox needs `‖aᵢ‖²` per user.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v * v).sum())
            .collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{arb_sparse, bits, fixture_dense, fixture_sparse};
    use proptest::prelude::*;

    /// `A · X` as a plain serial loop.
    fn serial_mat_dense(a: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), x.cols());
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                for (o, xv) in out.row_mut(r).iter_mut().zip(x.row(c as usize)) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// `Aᵀ · X` as a serial scatter over the rows of `A`.
    fn serial_scatter_transpose(a: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), x.cols());
        for r in 0..a.rows() {
            for (c, v) in a.row(r) {
                for (o, xv) in out.row_mut(c as usize).iter_mut().zip(x.row(r)) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dense_products_are_bit_identical_to_serial_at_any_thread_count(
            a in arb_sparse(40, 200),
            l in 0usize..6,
            seed in 0u64..100,
        ) {
            let x = fixture_dense(a.cols(), l, seed);
            let xt = fixture_dense(a.rows(), l, seed + 1);
            let want = bits(&serial_mat_dense(&a, &x));
            let want_t = bits(&serial_scatter_transpose(&a, &xt));
            prop_assert_eq!(bits(&a.mat_dense(&x)), want.clone());
            prop_assert_eq!(bits(&a.mat_dense_transpose(&xt)), want_t.clone());
            let at = a.transpose();
            for threads in 1..=3 {
                prop_assert_eq!(bits(&a.mat_dense_with(&x, threads)), want.clone());
                prop_assert_eq!(bits(&at.mat_dense_with(&xt, threads)), want_t.clone());
            }
        }
    }

    #[test]
    fn tall_products_are_bit_identical_at_any_thread_count() {
        let a = fixture_sparse(9_000, 700, 30_000);
        let (x, xt) = (fixture_dense(700, 7, 1), fixture_dense(9_000, 7, 2));
        let want = bits(&serial_mat_dense(&a, &x));
        let want_t = bits(&serial_scatter_transpose(&a, &xt));
        let at = a.transpose();
        for threads in 1..=3 {
            let got = bits(&a.mat_dense_with(&x, threads));
            assert_eq!(got, want, "{threads} threads");
            let got_t = bits(&at.mat_dense_with(&xt, threads));
            assert_eq!(got_t, want_t, "{threads} threads");
        }
    }

    #[test]
    fn mat_dense_into_overwrites_the_buffer() {
        let a = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let mut out = Matrix::from_fn(2, 2, |_, _| 99.0);
        a.mat_dense_into(&x, &mut out, 2);
        assert_eq!(out, a.mat_dense(&x));
    }

    #[test]
    fn transpose_round_trips_and_keeps_rows_sorted() {
        let a = fixture_sparse(50, 20, 300);
        let at = a.transpose();
        assert_eq!((at.rows(), at.cols(), at.nnz()), (20, 50, a.nnz()));
        assert_eq!(at.to_dense(), a.to_dense().transpose());
        for c in 0..at.rows() {
            let rows: Vec<u32> = at.row(c).map(|(r, _)| r).collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "row {c}: {rows:?}");
        }
        let back = at.transpose();
        assert_eq!((back.row_offsets, back.col_idx), (a.row_offsets, a.col_idx));
    }

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn shape_and_nnz() {
        let a = sample();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.to_dense()[(0, 0)], 3.5);
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let a = CsrMatrix::from_triplets(1, 4, &[(0, 3, 1.0), (0, 0, 1.0), (0, 2, 1.0)]);
        let cols: Vec<u32> = a.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2, 3]);
    }

    #[test]
    fn matvec_known() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-1.0, 0.0]);
    }

    #[test]
    fn matvec_transpose_known() {
        let a = sample();
        assert_eq!(a.matvec_transpose(&[1.0, 1.0]), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn transpose_matvec_agrees_with_dense() {
        let a = sample();
        let d = a.to_dense();
        let x = vec![0.5, -1.5];
        assert_eq!(a.matvec_transpose(&x), d.transpose().matvec(&x));
    }

    #[test]
    fn mat_dense_agrees_with_dense_matmul() {
        let a = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let got = a.mat_dense(&x);
        let want = a.to_dense().matmul(&x);
        assert!(got.max_abs_diff(&want) < 1e-14);
    }

    #[test]
    fn mat_dense_transpose_agrees_with_dense_matmul() {
        let a = sample();
        let x = Matrix::from_fn(2, 2, |r, c| (1 + r + 3 * c) as f64);
        let got = a.mat_dense_transpose(&x);
        let want = a.to_dense().transpose().matmul(&x);
        assert!(got.max_abs_diff(&want) < 1e-14);
    }

    #[test]
    fn from_edges_is_binary() {
        let a = CsrMatrix::from_edges(2, 2, &[(0, 1), (1, 0)]);
        let d = a.to_dense();
        assert_eq!(d[(0, 1)], 1.0);
        assert_eq!(d[(1, 0)], 1.0);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn row_sq_norms_and_frobenius() {
        let a = sample();
        assert_eq!(a.row_sq_norms(), vec![5.0, 9.0]);
        assert!((a.frobenius_norm() - 14.0f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = CsrMatrix::from_triplets(3, 2, &[(2, 1, 1.0)]);
        assert_eq!(a.row(0).count(), 0);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        CsrMatrix::from_triplets(1, 1, &[(0, 1, 1.0)]);
    }
}
