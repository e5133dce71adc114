//! Truncated singular value decomposition.
//!
//! [`randomized_svd`] implements the Halko–Martinsson–Tropp randomized
//! range-finder with power iterations: sketch `Y = A·Ω`, optionally iterate
//! `Y ← A · orth(Aᵀ Y)` to sharpen the spectrum, take an orthonormal basis
//! `Q` of `Y`, then solve the small problem exactly through the `l × l`
//! Gram matrix of `B = Qᵀ A`. With a couple of power iterations this
//! recovers the top-k triplets of graph adjacency matrices to working
//! accuracy — which is all SpokEn and FBox consume.
//!
//! The tall (`m`-row) side is never orthonormalized explicitly on the fast
//! path. Only the short side `Aᵀ Y` is, since `orth(Aᵀ·Y·R⁻¹) = orth(Aᵀ·Y)`
//! for upper-triangular `R` with a positive diagonal (thin QR is unique).
//! At the end a single Gram pass gives `R = chol(YᵀY)`, and `Q = Y·R⁻¹` is
//! applied implicitly: `Bᵀ = (Aᵀ Y)·R⁻¹` is a triangular solve on the
//! `n`-row side and `U = Y·(R⁻¹ W)`. One Cholesky pass leaves `Q` off
//! orthonormal by about `κ(Y)²·ε`, so when the pivot check fails (rank
//! deficiency) or the bound `‖R‖_F·‖R⁻¹‖_F` on `κ(Y)` exceeds 1e3, `Y` is
//! orthonormalized explicitly (CholeskyQR2, then MGS2) instead. Two dense
//! passes over the `m × l` sketch remain per call: the Gram matrix and `U`.
//!
//! Every step that touches an `m`- or `n`-row operand is row-parallel over
//! the available cores and bit-identical for every thread count: the
//! sparse products (`Aᵀ` is transposed once per call and gathered row by
//! row), the Gram matrices, CholeskyQR2, the triangular solve, and the
//! products `U = Y·(R⁻¹ W)`, `V = Bᵀ·W·Σ⁻¹`. [`randomized_svd_reference`]
//! is the textbook pipeline, serial and with an explicit MGS2 basis at every
//! half-step: the oracle the fast path is tested against.
//!
//! [`svd_small`] is the exact Gram-based SVD for small dense matrices; the
//! test-suite uses it as the reference the randomized method must match.

use crate::dense::Matrix;
use crate::eigen::symmetric_eigen;
use crate::par;
use crate::qr::{cholesky, orthonormalize_mgs2, orthonormalize_with, solve_upper_rows};
use crate::sparse::CsrMatrix;
use crate::vector;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A rank-`k` truncated SVD: `A ≈ U · diag(σ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × k` (columns are orthonormal).
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × k` (columns are orthonormal).
    pub v: Matrix,
}

impl Svd {
    /// Rank of the decomposition.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reconstructs the rank-k approximation densely (tests only).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.rank();
        let mut out = Matrix::zeros(self.u.rows(), self.v.rows());
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let mut acc = 0.0;
                for i in 0..k {
                    acc += self.u[(r, i)] * self.s[i] * self.v[(c, i)];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// Projects a row vector (length n) onto the top-k right singular
    /// subspace: returns `Vᵀ x` of length k. FBox scores nodes with this.
    pub fn project_row(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.v.rows(), "project_row: length mismatch");
        (0..self.rank())
            .map(|i| (0..x.len()).map(|j| self.v[(j, i)] * x[j]).sum())
            .collect()
    }
}

/// Tuning for [`randomized_svd`].
#[derive(Clone, Copy, Debug)]
pub struct SvdOptions {
    /// Extra sketch columns beyond `k` (default 10).
    pub oversample: usize,
    /// Power iterations `q` (default 2); each sharpens the spectral decay.
    pub power_iters: usize,
    /// RNG seed for the Gaussian sketch.
    pub seed: u64,
}

impl Default for SvdOptions {
    fn default() -> Self {
        SvdOptions {
            oversample: 10,
            power_iters: 2,
            seed: 0xEF5E_14DE,
        }
    }
}

/// Largest `‖R‖_F·‖R⁻¹‖_F` — an upper bound on `κ(Y)` — for which the
/// implicit basis `Q = Y·R⁻¹` is used. One Cholesky pass leaves `QᵀQ` off
/// the identity by about `κ(Y)²·ε`, so at the bound the basis is still
/// orthonormal to ~1e-10; above it `Y` is orthonormalized explicitly.
const MAX_IMPLICIT_CONDITION: f64 = 1e3;

/// Computes the top-`k` singular triplets of a sparse matrix.
///
/// `k` is clamped to `min(rows, cols)`. Returns fewer than `k` triplets only
/// when the clamp applies; numerically zero singular values are kept (as 0)
/// so callers can rely on the output rank.
pub fn randomized_svd(a: &CsrMatrix, k: usize, opts: SvdOptions) -> Svd {
    let threads = par::threads_for(a.rows().max(a.cols()));
    randomized_svd_with(a, k, opts, threads)
}

/// The textbook pipeline — an explicit orthonormal basis at every
/// half-step, by MGS2, run serially — as the reference implementation the
/// fast path is tested against. It agrees with [`randomized_svd`] to
/// rounding on inputs of full sketch rank and is several times slower on
/// tall input; use it in tests only.
pub fn randomized_svd_reference(a: &CsrMatrix, k: usize, opts: SvdOptions) -> Svd {
    let Some((k, at, mut q)) = sketch(a, k, opts, 1) else {
        return empty(a);
    };
    orthonormalize_mgs2(&mut q);
    let mut z = Matrix::zeros(a.cols(), q.cols());
    for _ in 0..opts.power_iters {
        at.mat_dense_into(&q, &mut z, 1);
        orthonormalize_mgs2(&mut z);
        a.mat_dense_into(&z, &mut q, 1);
        orthonormalize_mgs2(&mut q);
    }
    explicit_tail(&at, q, z, k, 1)
}

/// The randomized SVD pipeline on `threads` threads. The result does not
/// depend on `threads`.
///
/// Only the short (`n`-row) side is orthonormalized during the power
/// iterations: `orth(Aᵀ·Y·R⁻¹) = orth(Aᵀ·Y)` for any upper-triangular `R`
/// with a positive diagonal, so the tall sketch `Y` can stay as it is. At
/// the end one Gram pass gives `R = chol(YᵀY)`, and `Q = Y·R⁻¹` is applied
/// without being formed: `Bᵀ = AᵀQ = (Aᵀ·Y)·R⁻¹` and `U = Y·(R⁻¹·W)`.
pub(crate) fn randomized_svd_with(
    a: &CsrMatrix,
    k: usize,
    opts: SvdOptions,
    threads: usize,
) -> Svd {
    let Some((k, at, mut y)) = sketch(a, k, opts, threads) else {
        return empty(a);
    };
    let mut z = power_iterate(a, &at, &mut y, opts.power_iters, threads);
    let Some((r, r_inv)) = implicit_factor(&y, threads) else {
        // Rank-deficient or ill-conditioned sketch: form Q explicitly.
        orthonormalize_with(&mut y, threads);
        return explicit_tail(&at, y, z, k, threads);
    };
    at.mat_dense_into(&y, &mut z, threads);
    solve_upper_rows(&mut z, &r, threads);
    let (s, w, v) = small_factors(&z, k, threads);
    let u = y.matmul_with(&r_inv.matmul_with(&w, 1), threads);
    Svd { u, s, v }
}

/// The clamped rank, `Aᵀ`, and the Gaussian range sketch `Y = A·Ω`
/// (`m × l`, `l = k + oversample` clamped to the shape); `None` when the
/// clamped rank is 0.
fn sketch(
    a: &CsrMatrix,
    k: usize,
    opts: SvdOptions,
    threads: usize,
) -> Option<(usize, CsrMatrix, Matrix)> {
    let (m, n) = (a.rows(), a.cols());
    let k = k.min(m).min(n);
    if k == 0 {
        return None;
    }
    let l = (k + opts.oversample).min(m).min(n);
    let at = a.transpose();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let omega = gaussian_matrix(n, l, &mut rng);
    Some((k, at, a.mat_dense_with(&omega, threads)))
}

/// Runs `iters` power iterations on the sketch, `Y ← A·orth(Aᵀ·Y)`,
/// leaving `Y` un-normalized. Returns the `n × l` buffer of the last
/// short-side product (zeros if `iters` is 0) for reuse; the products
/// overwrite it and `y` in place rather than allocating.
fn power_iterate(
    a: &CsrMatrix,
    at: &CsrMatrix,
    y: &mut Matrix,
    iters: usize,
    threads: usize,
) -> Matrix {
    let mut z = Matrix::zeros(a.cols(), y.cols());
    for _ in 0..iters {
        at.mat_dense_into(y, &mut z, threads);
        orthonormalize_with(&mut z, threads);
        a.mat_dense_into(&z, y, threads);
    }
    z
}

/// The rank-0 decomposition of `a`.
fn empty(a: &CsrMatrix) -> Svd {
    Svd {
        u: Matrix::zeros(a.rows(), 0),
        s: Vec::new(),
        v: Matrix::zeros(a.cols(), 0),
    }
}

/// `R` and `R⁻¹` with `YᵀY = RᵀR`, when `Q = Y·R⁻¹` is orthonormal to
/// working accuracy: `None` if the Cholesky pivot check fails or the
/// conditioning bound exceeds [`MAX_IMPLICIT_CONDITION`].
fn implicit_factor(y: &Matrix, threads: usize) -> Option<(Matrix, Matrix)> {
    let r = cholesky(&y.gram_with(threads))?;
    let mut r_inv = Matrix::identity(r.rows());
    solve_upper_rows(&mut r_inv, &r, 1);
    let bound = r.frobenius_norm() * r_inv.frobenius_norm();
    (bound <= MAX_IMPLICIT_CONDITION).then_some((r, r_inv))
}

/// The decomposition from an explicit orthonormal basis `q` (`m × l`):
/// `Bᵀ = AᵀQ` is written into `z` (`n × l`) and `U = Q·W`.
fn explicit_tail(at: &CsrMatrix, q: Matrix, mut z: Matrix, k: usize, threads: usize) -> Svd {
    at.mat_dense_into(&q, &mut z, threads);
    let (s, w, v) = small_factors(&z, k, threads);
    let u = q.matmul_with(&w, threads);
    Svd { u, s, v }
}

/// Solves the small problem for `B = Qᵀ·A`, given `Bᵀ` (`n × l`), exactly
/// through its `l × l` Gram matrix `B·Bᵀ = W·Λ·Wᵀ`: returns `σᵢ = √λᵢ`,
/// the top-`k` eigenvectors `W` (`l × k`) and `V = Bᵀ·W·Σ⁻¹`.
fn small_factors(bt: &Matrix, k: usize, threads: usize) -> (Vec<f64>, Matrix, Matrix) {
    let eig = symmetric_eigen(&bt.gram_with(threads));
    let s: Vec<f64> = eig.values[..k]
        .iter()
        .map(|&lambda| lambda.max(0.0).sqrt())
        .collect();
    let w = Matrix::from_fn(bt.cols(), k, |r, c| eig.vectors[(r, c)]);
    let mut v = bt.matmul_with(&w, threads);
    for row in v.as_mut_slice().chunks_exact_mut(k) {
        for (x, &sigma) in row.iter_mut().zip(&s) {
            // σ == 0 ⇒ V column stays zero: the direction is arbitrary and
            // consumers treat zero singular values as "no component".
            *x = if sigma > f64::EPSILON { *x / sigma } else { 0.0 };
        }
    }
    (s, w, v)
}

/// Exact SVD of a small dense matrix through the Gram matrix of its smaller
/// dimension. O(min(m,n)³ + m·n·min(m,n)); intended for tests and `l × n`
/// core problems.
pub fn svd_small(a: &Matrix, k: usize) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    let k = k.min(m).min(n);
    if k == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: Vec::new(),
            v: Matrix::zeros(n, 0),
        };
    }

    if m <= n {
        // G = A Aᵀ (m × m) = U Σ² Uᵀ; V = Aᵀ U Σ⁻¹.
        let g = a.matmul(&a.transpose());
        let eig = symmetric_eigen(&g);
        let mut s = Vec::with_capacity(k);
        let mut u = Matrix::zeros(m, k);
        let mut v = Matrix::zeros(n, k);
        let at = a.transpose();
        for i in 0..k {
            let sigma = eig.values[i].max(0.0).sqrt();
            s.push(sigma);
            let ucol = eig.vectors.col(i);
            u.set_col(i, &ucol);
            if sigma > f64::EPSILON {
                let mut vcol = at.matvec(&ucol);
                vector::scale(1.0 / sigma, &mut vcol);
                v.set_col(i, &vcol);
            }
        }
        Svd { u, s, v }
    } else {
        // G = Aᵀ A (n × n) = V Σ² Vᵀ; U = A V Σ⁻¹.
        let g = a.transpose().matmul(a);
        let eig = symmetric_eigen(&g);
        let mut s = Vec::with_capacity(k);
        let mut u = Matrix::zeros(m, k);
        let mut v = Matrix::zeros(n, k);
        for i in 0..k {
            let sigma = eig.values[i].max(0.0).sqrt();
            s.push(sigma);
            let vcol = eig.vectors.col(i);
            v.set_col(i, &vcol);
            if sigma > f64::EPSILON {
                let mut ucol = a.matvec(&vcol);
                vector::scale(1.0 / sigma, &mut ucol);
                u.set_col(i, &ucol);
            }
        }
        Svd { u, s, v }
    }
}

/// Standard-normal matrix via Box–Muller (rand ships only uniform draws).
fn gaussian_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random::<f64>();
        (-2.0f64 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::orthonormality_error;
    use crate::testing::{arb_sparse, bits, fixture_sparse};
    use proptest::prelude::*;

    /// Runs the production pipeline at 1, 2 and 3 threads and checks every
    /// factor is bit-identical to the single-threaded one.
    fn assert_thread_invariant(
        a: &CsrMatrix,
        k: usize,
        opts: SvdOptions,
    ) -> Result<(), TestCaseError> {
        let one = randomized_svd_with(a, k, opts, 1);
        for threads in 2..=3 {
            let svd = randomized_svd_with(a, k, opts, threads);
            let s_bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(s_bits(&svd.s), s_bits(&one.s), "σ at {} threads", threads);
            prop_assert_eq!(bits(&svd.u), bits(&one.u), "U at {} threads", threads);
            prop_assert_eq!(bits(&svd.v), bits(&one.v), "V at {} threads", threads);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn randomized_svd_is_bit_identical_at_any_thread_count(a in arb_sparse(40, 200)) {
            assert_thread_invariant(&a, 3, SvdOptions::default())?;
        }
    }

    #[test]
    fn tall_randomized_svd_is_bit_identical_at_any_thread_count() {
        // Over two Gram blocks of rows, so block sums and row chunks split,
        // and an odd row count, so chunks cut the solve's four-row groups
        // differently at each thread count.
        let a = fixture_sparse(9_001, 600, 40_000);
        assert_thread_invariant(&a, 5, SvdOptions::default()).unwrap();
    }

    /// Which tail the fast path takes on `a`.
    #[derive(Debug, PartialEq)]
    enum Tail {
        Implicit,
        CholeskyFailed,
        IllConditioned,
    }

    fn tail_taken(a: &CsrMatrix, k: usize, opts: SvdOptions) -> Tail {
        let (_, at, mut y) = sketch(a, k, opts, 1).unwrap();
        power_iterate(a, &at, &mut y, opts.power_iters, 1);
        if implicit_factor(&y, 1).is_some() {
            Tail::Implicit
        } else if cholesky(&y.gram_with(1)).is_none() {
            Tail::CholeskyFailed
        } else {
            Tail::IllConditioned
        }
    }

    /// Checks the fast path against the MGS2 reference on `a`: σ to
    /// 1e-10·(1 + σ), `U` and the first `v_rank` columns of `V` orthonormal
    /// to 1e-9, and every factor bit-identical at 1–3 threads.
    fn assert_matches_reference(a: &CsrMatrix, k: usize, opts: SvdOptions, v_rank: usize) {
        let fast = randomized_svd(a, k, opts);
        let oracle = randomized_svd_reference(a, k, opts);
        for (s, r) in fast.s.iter().zip(&oracle.s) {
            assert!(
                (s - r).abs() <= 1e-10 * (1.0 + r),
                "σ {s} vs {r} ({opts:?})"
            );
        }
        assert!(orthonormality_error(&fast.u) < 1e-9, "U ({opts:?})");
        let v = Matrix::from_fn(fast.v.rows(), v_rank, |r, c| fast.v[(r, c)]);
        assert!(orthonormality_error(&v) < 1e-9, "V ({opts:?})");
        assert_thread_invariant(a, k, opts).unwrap();
    }

    fn power_iters(q: usize) -> SvdOptions {
        SvdOptions {
            power_iters: q,
            ..Default::default()
        }
    }

    #[test]
    fn implicit_basis_matches_the_reference_on_tall_input() {
        let a = fixture_sparse(9_001, 600, 40_000);
        for q in [0, 1, 2, 4] {
            assert_eq!(tail_taken(&a, 5, power_iters(q)), Tail::Implicit, "q = {q}");
            assert_matches_reference(&a, 5, power_iters(q), 5);
        }
    }

    #[test]
    fn rank_deficient_tall_input_takes_the_explicit_tail() {
        // Every row repeats one of three patterns: rank 3 < l = 15, so the
        // sketch's Gram matrix is singular.
        let triplets: Vec<(u32, u32, f64)> = (0..9_001u32)
            .flat_map(|r| (0..5u32).map(move |t| (r, (r % 3) * 7 + t, 1.0 + ((r % 3) * t) as f64)))
            .collect();
        let a = CsrMatrix::from_triplets(9_001, 600, &triplets);
        for q in [0, 2] {
            assert_eq!(
                tail_taken(&a, 5, power_iters(q)),
                Tail::CholeskyFailed,
                "q = {q}"
            );
            assert_matches_reference(&a, 5, power_iters(q), 3);
        }
    }

    #[test]
    fn ill_conditioned_tall_input_takes_the_explicit_tail() {
        // Singular values 10^(-j/2), one per column in scattered rows, and
        // no oversampling: the sketch's l = 12 columns have κ ≈ 10^5.5, past
        // the bound but within Cholesky's reach. At q = 0 one implicit pass
        // would leave U off orthonormal by ~1e-4. V's trailing columns lose
        // orthogonality in the small Gram problem, the reference's too, so
        // only its first 4 (σ ≥ 10^-1.5) are held to 1e-9.
        let triplets: Vec<(u32, u32, f64)> = (0..600u32)
            .map(|j| ((j * 15 + 7) % 9_001, j, 10f64.powf(-0.5 * j as f64)))
            .collect();
        let a = CsrMatrix::from_triplets(9_001, 600, &triplets);
        for q in [0, 2] {
            let opts = SvdOptions {
                oversample: 0,
                ..power_iters(q)
            };
            assert_eq!(tail_taken(&a, 12, opts), Tail::IllConditioned, "q = {q}");
            assert_matches_reference(&a, 12, opts, 4);
        }
    }

    /// Builds a sparse matrix with exactly known singular values by taking a
    /// diagonal and permuting.
    fn diagonal_matrix(values: &[f64]) -> CsrMatrix {
        let n = values.len();
        let triplets: Vec<(u32, u32, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, i as u32, v))
            .collect();
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    #[test]
    fn randomized_svd_recovers_diagonal_spectrum() {
        let a = diagonal_matrix(&[10.0, 7.0, 4.0, 2.0, 1.0, 0.5]);
        let svd = randomized_svd(&a, 3, SvdOptions::default());
        assert_eq!(svd.rank(), 3);
        assert!((svd.s[0] - 10.0).abs() < 1e-8, "s = {:?}", svd.s);
        assert!((svd.s[1] - 7.0).abs() < 1e-8);
        assert!((svd.s[2] - 4.0).abs() < 1e-8);
    }

    #[test]
    fn randomized_svd_factors_are_orthonormal() {
        let a = diagonal_matrix(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        let svd = randomized_svd(&a, 4, SvdOptions::default());
        assert!(orthonormality_error(&svd.u) < 1e-9);
        assert!(orthonormality_error(&svd.v) < 1e-9);
    }

    #[test]
    fn randomized_svd_reconstructs_low_rank_exactly() {
        // Rank-2 matrix: outer products of two index patterns.
        let mut triplets = Vec::new();
        for i in 0..12u32 {
            for j in 0..9u32 {
                let v = 3.0 * ((i % 3) as f64) * ((j % 2) as f64 + 1.0)
                    + 2.0 * ((i % 2) as f64) * ((j % 3) as f64);
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        let a = CsrMatrix::from_triplets(12, 9, &triplets);
        let svd = randomized_svd(&a, 4, SvdOptions::default());
        // Rank ≤ 4 approximation of a rank-≤4 matrix must be (near-)exact.
        let err = svd.reconstruct().max_abs_diff(&a.to_dense());
        assert!(err < 1e-8, "reconstruction error {err}");
    }

    #[test]
    fn randomized_matches_exact_small_svd() {
        let triplets: Vec<(u32, u32, f64)> = (0..40u32)
            .map(|i| (i % 8, (i * 3) % 6, ((i % 5) as f64) - 1.5))
            .collect();
        let a = CsrMatrix::from_triplets(8, 6, &triplets);
        let exact = svd_small(&a.to_dense(), 4);
        let approx = randomized_svd(&a, 4, SvdOptions::default());
        for i in 0..4 {
            assert!(
                (exact.s[i] - approx.s[i]).abs() < 1e-6,
                "σ{i}: exact {} vs approx {}",
                exact.s[i],
                approx.s[i]
            );
        }
    }

    #[test]
    fn svd_small_known_2x2() {
        // [[3,0],[0,4]] → singular values {4,3}.
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        let svd = svd_small(&a, 2);
        assert!((svd.s[0] - 4.0).abs() < 1e-12);
        assert!((svd.s[1] - 3.0).abs() < 1e-12);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn svd_small_wide_and_tall_agree() {
        let tall = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c * 2) % 7) as f64 - 3.0);
        let wide = tall.transpose();
        let st = svd_small(&tall, 3);
        let sw = svd_small(&wide, 3);
        for i in 0..3 {
            assert!((st.s[i] - sw.s[i]).abs() < 1e-9);
        }
        assert!(st.reconstruct().max_abs_diff(&tall) < 1e-9);
        assert!(sw.reconstruct().max_abs_diff(&wide) < 1e-9);
    }

    #[test]
    fn k_is_clamped_to_min_dimension() {
        let a = diagonal_matrix(&[2.0, 1.0]);
        let svd = randomized_svd(&a, 10, SvdOptions::default());
        assert_eq!(svd.rank(), 2);
        let svd = svd_small(&a.to_dense(), 10);
        assert_eq!(svd.rank(), 2);
    }

    #[test]
    fn zero_k_returns_empty() {
        let a = diagonal_matrix(&[1.0]);
        let svd = randomized_svd(&a, 0, SvdOptions::default());
        assert_eq!(svd.rank(), 0);
        assert_eq!(svd.u.cols(), 0);
    }

    #[test]
    fn rank_deficient_input_yields_zero_sigmas() {
        // 4×4 all-ones: rank 1, σ₁ = 4, rest 0.
        let triplets: Vec<(u32, u32, f64)> = (0..16u32).map(|i| (i / 4, i % 4, 1.0)).collect();
        let a = CsrMatrix::from_triplets(4, 4, &triplets);
        let svd = randomized_svd(&a, 3, SvdOptions::default());
        assert!((svd.s[0] - 4.0).abs() < 1e-8);
        assert!(svd.s[1].abs() < 1e-7);
        assert!(svd.s[2].abs() < 1e-7);
    }

    #[test]
    fn project_row_matches_manual() {
        let a = diagonal_matrix(&[3.0, 2.0, 1.0]);
        let svd = randomized_svd(&a, 2, SvdOptions::default());
        let x = vec![1.0, 1.0, 1.0];
        let p = svd.project_row(&x);
        assert_eq!(p.len(), 2);
        // Projection norm ≤ ‖x‖.
        let pn: f64 = p.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(pn <= 3f64.sqrt() + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = diagonal_matrix(&[5.0, 3.0, 2.0, 1.0]);
        let s1 = randomized_svd(&a, 2, SvdOptions::default());
        let s2 = randomized_svd(&a, 2, SvdOptions::default());
        assert_eq!(s1.s, s2.s);
        assert!(s1.u.max_abs_diff(&s2.u) == 0.0);
    }
}
