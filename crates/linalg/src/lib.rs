#![warn(missing_docs)]

//! Minimal dense/sparse linear-algebra substrate for the SVD-based fraud
//! detection baselines (SpokEn, FBox).
//!
//! The paper's spectral baselines need exactly one nontrivial primitive: the
//! **top-k singular triplets of a large sparse bipartite adjacency matrix**.
//! Rather than pulling a LAPACK binding, this crate implements the standard
//! randomized truncated SVD (Halko–Martinsson–Tropp) from first principles:
//!
//! - [`dense::Matrix`] — small row-major dense matrices,
//! - [`vector`] — dense vector kernels (dot, axpy, norms),
//! - [`qr::orthonormalize`] — CholeskyQR2, falling back to modified
//!   Gram–Schmidt with re-orthogonalization ([`qr::orthonormalize_mgs2`])
//!   on rank-deficient input,
//! - [`eigen::symmetric_eigen`] — cyclic Jacobi eigensolver for small
//!   symmetric matrices,
//! - [`sparse::CsrMatrix`] — CSR storage with `A·x`, `Aᵀ·x` and row-parallel
//!   dense products,
//! - [`svd::randomized_svd`] — the composition of the above, row-parallel
//!   over the available cores and bit-identical for every thread count;
//!   it orthonormalizes only the short side and applies the tall basis
//!   implicitly from a Cholesky factor ([`svd::randomized_svd_reference`]
//!   is the serial oracle with an explicit MGS2 basis at every half-step),
//! - [`svd::svd_small`] — exact (Gram-based) SVD for small dense matrices,
//!   used as the reference implementation in tests,
//! - [`power::power_iteration`] — dominant singular triplet, a cheap
//!   cross-check of the randomized method.
//!
//! Everything is `f64`; matrices in the target workloads are at most a few
//! million nonzeros with k ≤ 50 components.

pub mod dense;
pub mod eigen;
pub mod lanczos;
mod par;
pub mod power;
pub mod qr;
pub mod sparse;
pub mod svd;
#[cfg(test)]
mod testing;
pub mod vector;

pub use dense::Matrix;
pub use lanczos::lanczos_svd;
pub use sparse::CsrMatrix;
pub use svd::{randomized_svd, randomized_svd_reference, svd_small, Svd, SvdOptions};
