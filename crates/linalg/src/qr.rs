//! Orthonormalization of tall-skinny matrices.
//!
//! The randomized SVD needs orthonormal bases of the ranges of tall-skinny
//! matrices `Y` (rows × l, l small). [`orthonormalize`] computes one by
//! **CholeskyQR2**: form the Gram matrix `G = YᵀY`, factor `G = RᵀR`, set
//! `Y ← Y·R⁻¹`, and do it all a second time to restore orthogonality to
//! working precision (Fukaya et al.). Both steps are row-major, blocked and
//! row-parallel (a Gram kernel over fixed row blocks and a row-wise
//! triangular solve), so the tall operand is streamed twice per pass instead
//! of once per column pair, and the result is bit-identical for every
//! thread count.
//!
//! CholeskyQR needs `Y` to have full, reasonably conditioned column rank.
//! When a Cholesky pivot is non-positive or tiny relative to its column's
//! norm — the underlying operator has rank < l, or `Y` has more columns
//! than rows — it falls back to [`orthonormalize_mgs2`]: modified
//! Gram–Schmidt with a re-orthogonalization pass ("twice is enough",
//! Giraud et al.), which replaces degenerate columns by deterministic
//! pseudo-random directions so `Q` always has exactly orthonormal columns.
//! MGS2 is also the reference the tests hold CholeskyQR2 to.
//!
//! The randomized SVD calls [`orthonormalize`] on its short (`n`-row) side
//! only; for the tall sketch it uses the Cholesky factor and the row-wise
//! triangular solve directly, applying `Q = Y·R⁻¹` without forming it, and
//! falls back to [`orthonormalize`] when that would lose orthogonality.

use crate::dense::Matrix;
use crate::par;
use crate::vector::{axpy, dot, norm2, normalize};
use std::cmp::Ordering;

/// Relative norm threshold below which a column counts as linearly
/// dependent in MGS2.
const DEGENERACY_TOL: f64 = 1e-10;

/// Smallest Cholesky pivot, relative to its diagonal entry of `G`, that
/// CholeskyQR accepts: a column whose residual against the earlier columns
/// is below `1e-6` of its norm makes `Y` too ill-conditioned for the Gram
/// route, and MGS2 takes over.
const PIVOT_TOL: f64 = 1e-12;

/// Orthonormalizes the columns of `y` in place, spanning the same space.
/// Returns the number of columns that had to be replaced because they were
/// linearly dependent on earlier ones (always 0 unless the MGS2 fallback
/// ran).
pub fn orthonormalize(y: &mut Matrix) -> usize {
    orthonormalize_with(y, par::threads_for(y.rows()))
}

/// [`orthonormalize`] on `threads` threads; the result does not depend on
/// `threads`.
pub(crate) fn orthonormalize_with(y: &mut Matrix, threads: usize) -> usize {
    // A failed first pass leaves `y` untouched; a failed second pass hands
    // MGS2 `Y·R⁻¹`, which spans the same space.
    for _pass in 0..2 {
        match cholesky(&y.gram_with(threads)) {
            Some(r) => solve_upper_rows(y, &r, threads),
            None => return orthonormalize_mgs2(y),
        }
    }
    0
}

/// Upper-triangular `R` with `g = RᵀR`, or `None` on a non-positive or
/// relatively tiny pivot (see [`PIVOT_TOL`]).
pub(crate) fn cholesky(g: &Matrix) -> Option<Matrix> {
    let l = g.rows();
    let mut r = Matrix::zeros(l, l);
    for j in 0..l {
        let pivot = g[(j, j)] - (0..j).map(|k| r[(k, j)] * r[(k, j)]).sum::<f64>();
        // Incomparable (NaN) fails too.
        if pivot.partial_cmp(&(PIVOT_TOL * g[(j, j)])) != Some(Ordering::Greater) {
            return None;
        }
        let rjj = pivot.sqrt();
        r[(j, j)] = rjj;
        for c in j + 1..l {
            let s = g[(j, c)] - (0..j).map(|k| r[(k, j)] * r[(k, c)]).sum::<f64>();
            r[(j, c)] = s / rjj;
        }
    }
    Some(r)
}

/// `Y ← Y·R⁻¹` for upper-triangular `R`, row by row: each row `x` solves
/// `x·R = y` by forward substitution along `R`'s contiguous rows. Four rows
/// share each sweep over `R`; every row sees the same operations either way.
pub(crate) fn solve_upper_rows(y: &mut Matrix, r: &Matrix, threads: usize) {
    let l = y.cols();
    par::for_each_chunk(y.as_mut_slice(), l, threads, |_, chunk| {
        let mut quads = chunk.chunks_exact_mut(4 * l);
        for quad in &mut quads {
            let (y0, rest) = quad.split_at_mut(l);
            let (y1, rest) = rest.split_at_mut(l);
            let (y2, y3) = rest.split_at_mut(l);
            for i in 0..l {
                let rii = r[(i, i)];
                let (x0, x1, x2, x3) = (y0[i] / rii, y1[i] / rii, y2[i] / rii, y3[i] / rii);
                (y0[i], y1[i], y2[i], y3[i]) = (x0, x1, x2, x3);
                let tails = y0[i + 1..]
                    .iter_mut()
                    .zip(&mut y1[i + 1..])
                    .zip(&mut y2[i + 1..])
                    .zip(&mut y3[i + 1..]);
                for (&rij, (((a, b), c), d)) in r.row(i)[i + 1..].iter().zip(tails) {
                    *a -= x0 * rij;
                    *b -= x1 * rij;
                    *c -= x2 * rij;
                    *d -= x3 * rij;
                }
            }
        }
        for row in quads.into_remainder().chunks_exact_mut(l) {
            for i in 0..l {
                let (head, tail) = row.split_at_mut(i + 1);
                let xi = head[i] / r[(i, i)];
                head[i] = xi;
                axpy(-xi, &r.row(i)[i + 1..], tail);
            }
        }
    });
}

/// Orthonormalizes the columns of `y` in place by modified Gram–Schmidt
/// with re-orthogonalization. Returns the number of columns that had to be
/// replaced because they were linearly dependent on earlier ones.
///
/// This is [`orthonormalize`]'s fallback for rank-deficient input and the
/// reference implementation its tests compare against; it walks `y` one
/// column pair at a time and is several times slower on tall input.
pub fn orthonormalize_mgs2(y: &mut Matrix) -> usize {
    let l = y.cols();
    let mut replaced = 0usize;
    // Column-major scratch: MGS works column-wise; `Matrix` is row-major, so
    // pull the columns out once instead of striding on every dot product.
    let mut cols: Vec<Vec<f64>> = (0..l).map(|c| y.col(c)).collect();

    for j in 0..l {
        let original_norm = norm2(&cols[j]).max(f64::MIN_POSITIVE);
        let mut attempt = 0usize;
        loop {
            // Two MGS passes against all previous columns.
            for _pass in 0..2 {
                for i in 0..j {
                    let (head, tail) = cols.split_at_mut(j);
                    let qi = &head[i];
                    let cj = &mut tail[0];
                    let r = dot(qi, cj);
                    axpy(-r, qi, cj);
                }
            }
            let n = normalize(&mut cols[j]);
            if n > DEGENERACY_TOL * original_norm && n > 0.0 {
                break;
            }
            // Column was (numerically) in the span of its predecessors:
            // substitute a deterministic pseudo-random direction and retry.
            replaced += 1;
            attempt += 1;
            let col = &mut cols[j];
            for (r, v) in col.iter_mut().enumerate() {
                *v = pseudo_random(j as u64, attempt as u64, r as u64);
            }
            if attempt > 4 {
                // Pathological (e.g. more columns than rows): zero it out.
                for v in cols[j].iter_mut() {
                    *v = 0.0;
                }
                break;
            }
        }
    }

    for (c, colv) in cols.iter().enumerate() {
        y.set_col(c, colv);
    }
    replaced
}

/// SplitMix64-based deterministic value in (-1, 1).
fn pseudo_random(a: u64, b: u64, c: u64) -> f64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Max deviation of `QᵀQ` from the identity — a test/diagnostic helper.
pub fn orthonormality_error(q: &Matrix) -> f64 {
    let g = q.transpose().matmul(q);
    g.max_abs_diff(&Matrix::identity(q.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;
    use crate::testing::{bits, fixture_dense};

    #[test]
    fn tall_input_is_bit_identical_at_any_thread_count() {
        // 9,001 rows: chunk boundaries at 1, 2 and 3 threads split the
        // four-row groups of the solve differently.
        let y = fixture_dense(9_001, 7, 11);
        let mut one = y.clone();
        assert_eq!(orthonormalize_with(&mut one, 1), 0);
        assert!(orthonormality_error(&one) < 1e-12);
        for threads in 2..=3 {
            let mut q = y.clone();
            orthonormalize_with(&mut q, threads);
            assert_eq!(bits(&q), bits(&one), "{threads} threads");
        }
    }

    #[test]
    fn cholesky_rejects_singular_and_accepts_spd() {
        let spd = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let r = cholesky(&spd).unwrap();
        assert!(r.transpose().matmul(&r).max_abs_diff(&spd) < 1e-14);
        assert_eq!(r[(1, 0)], 0.0);
        let singular = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        assert!(cholesky(&singular).is_none());
        assert!(cholesky(&Matrix::zeros(2, 2)).is_none());
        let nan = Matrix::from_vec(1, 1, vec![f64::NAN]);
        assert!(cholesky(&nan).is_none());
    }

    #[test]
    fn orthonormalizes_random_tall_matrix() {
        let y = Matrix::from_fn(20, 5, |r, c| pseudo_random(7, r as u64, c as u64));
        let mut q = y.clone();
        let replaced = orthonormalize(&mut q);
        assert_eq!(replaced, 0);
        assert!(orthonormality_error(&q) < 1e-12);
    }

    #[test]
    fn span_is_preserved_for_full_rank_input() {
        // Q must satisfy Y = Q (QᵀY): projection of Y onto span(Q) equals Y.
        let y = Matrix::from_fn(12, 3, |r, c| ((r * 3 + c * 5) % 11) as f64 - 5.0);
        let mut q = y.clone();
        orthonormalize(&mut q);
        let proj = q.matmul(&q.transpose().matmul(&y));
        assert!(proj.max_abs_diff(&y) < 1e-9);
    }

    #[test]
    fn dependent_columns_are_replaced() {
        // Second column is 2× the first: rank 1 input, 3 columns.
        let mut y = Matrix::from_fn(8, 3, |r, c| match c {
            0 => (r + 1) as f64,
            1 => 2.0 * (r + 1) as f64,
            _ => -((r + 1) as f64),
        });
        let replaced = orthonormalize(&mut y);
        assert!(replaced >= 2, "two dependent columns must be replaced");
        assert!(orthonormality_error(&y) < 1e-10);
    }

    #[test]
    fn zero_matrix_becomes_orthonormal() {
        let mut y = Matrix::zeros(6, 2);
        orthonormalize(&mut y);
        assert!(orthonormality_error(&y) < 1e-10);
    }

    #[test]
    fn already_orthonormal_is_stable() {
        let mut q = Matrix::zeros(4, 2);
        q[(0, 0)] = 1.0;
        q[(1, 1)] = 1.0;
        let before = q.clone();
        let replaced = orthonormalize(&mut q);
        assert_eq!(replaced, 0);
        assert!(q.max_abs_diff(&before) < 1e-12);
    }
}
