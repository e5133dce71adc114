//! Helpers shared by the unit tests.

use crate::dense::Matrix;
use crate::sparse::CsrMatrix;
use proptest::prelude::*;

/// Strategy: sparse matrices as triplet lists.
pub(crate) fn arb_sparse(max_dim: u32, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        prop::collection::vec((0..r, 0..c, -3.0f64..3.0), 0..=max_nnz)
            .prop_map(move |t| CsrMatrix::from_triplets(r as usize, c as usize, &t))
    })
}

/// A deterministic dense matrix with entries that do not round trivially.
pub(crate) fn fixture_dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r as u64 * 31 + c as u64 * 17 + seed * 7919) % 1009;
        h as f64 / 97.0 - 5.2
    })
}

/// A sparse `rows × cols` matrix with `nnz` pseudo-random entries.
pub(crate) fn fixture_sparse(rows: u32, cols: u32, nnz: u32) -> CsrMatrix {
    let triplets: Vec<(u32, u32, f64)> = (0..nnz)
        .map(|i| {
            let h = i.wrapping_mul(2_654_435_761);
            (h % rows, (h / 7) % cols, 0.5 + (i % 13) as f64 / 3.0)
        })
        .collect();
    CsrMatrix::from_triplets(rows as usize, cols as usize, &triplets)
}

/// The entries' bit patterns: equal iff bit-identical (`-0.0 ≠ 0.0`).
pub(crate) fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}
