//! Randomized truncated SVD: cost vs rank `k` and vs power iterations `q`,
//! plus the accuracy/cost trade-off of `q` (the subspace sharpening the
//! SpokEn/FBox baselines rely on); the tall-skinny orthonormalization
//! kernel on its own (CholeskyQR2 against the MGS2 reference — the SVD's
//! fast path runs it only on the short side, and on the tall sketch only
//! as the fallback for rank-deficient or ill-conditioned input); and the
//! whole SVD at the hybrid scorer's jd3/16 shape across thread counts.
//!
//! Run with `cargo bench -p ensemfdet-bench --bench svd` (every group runs).
//! Recorded numbers are in EXPERIMENTS.md ("Spectral scoring" sections).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ensemfdet_linalg::qr::{orthonormalize, orthonormalize_mgs2};
use ensemfdet_linalg::{lanczos_svd, randomized_svd, CsrMatrix, Matrix, SvdOptions};
use std::hint::black_box;

/// Low-rank-plus-noise sparse matrix shaped like a transaction graph.
fn matrix(rows: u32, cols: u32, nnz: u32) -> CsrMatrix {
    let triplets: Vec<(u32, u32, f64)> = (0..nnz)
        .map(|i| {
            let r = i % rows;
            let c = if i % 7 == 0 {
                r % 8 % cols // 8 dense columns: the planted spectrum
            } else {
                i.wrapping_mul(2654435761) % cols
            };
            (r, c, 1.0)
        })
        .collect();
    CsrMatrix::from_triplets(rows as usize, cols as usize, &triplets)
}

fn bench_rank(c: &mut Criterion) {
    let a = matrix(20_000, 3_000, 60_000);
    let mut group = c.benchmark_group("randomized_svd_by_k");
    group.sample_size(10);
    for k in [5usize, 25, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(randomized_svd(
                    &a,
                    k,
                    SvdOptions {
                        power_iters: 2,
                        ..Default::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_power_iters(c: &mut Criterion) {
    let a = matrix(20_000, 3_000, 60_000);
    let mut group = c.benchmark_group("randomized_svd_by_q");
    group.sample_size(10);
    for q in [0usize, 1, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| {
                black_box(randomized_svd(
                    &a,
                    25,
                    SvdOptions {
                        power_iters: q,
                        ..Default::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

/// Randomized vs Lanczos at matched rank — the two truncated-SVD routes.
fn bench_algorithms(c: &mut Criterion) {
    let a = matrix(20_000, 3_000, 60_000);
    let mut group = c.benchmark_group("svd_algorithm");
    group.sample_size(10);
    group.bench_function("randomized_q2", |b| {
        b.iter(|| {
            black_box(randomized_svd(
                &a,
                25,
                SvdOptions {
                    power_iters: 2,
                    ..Default::default()
                },
            ))
        })
    });
    group.bench_function("lanczos_extra8", |b| {
        b.iter(|| black_box(lanczos_svd(&a, 25, 8)))
    });
    group.finish();
}

/// The sketch basis of the hybrid scorer at jd3/16: 270,000 users × 35
/// columns (k = 25 plus the default oversampling of 10). Once orthonormal,
/// re-orthonormalizing in place costs the same as the first pass, so no
/// copy of the 75 MB input is timed.
fn bench_orthonormalize(c: &mut Criterion) {
    let mut y = Matrix::from_fn(270_000, 35, |r, j| {
        let h = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64 * 0xBF58_476D);
        (h % 2001) as f64 / 1000.0 - 1.0
    });
    let mut group = c.benchmark_group("orthonormalize_270000x35");
    group.sample_size(10);
    group.bench_function("cholesky_qr2", |b| b.iter(|| orthonormalize(&mut y)));
    group.bench_function("mgs2_reference", |b| b.iter(|| orthonormalize_mgs2(&mut y)));
    group.finish();
}

/// `randomized_svd` at the hybrid scorer's jd3/16 shape (k = 25, q = 2),
/// with the process pinned to 1, 2, … of its CPUs: the kernels take their
/// thread count from `available_parallelism`, which follows the pinning.
fn bench_threads(c: &mut Criterion) {
    let a = matrix(270_000, 27_000, 525_000);
    let allowed = affinity::get();
    let mut group = c.benchmark_group("randomized_svd_jd3_16_by_threads");
    group.sample_size(10);
    for cpus in 1..=affinity::count(&allowed) {
        affinity::set(&affinity::first(&allowed, cpus));
        group.bench_with_input(BenchmarkId::from_parameter(cpus), &cpus, |b, _| {
            b.iter(|| black_box(randomized_svd(&a, 25, SvdOptions::default())))
        });
    }
    affinity::set(&allowed);
    group.finish();
}

/// The calling thread's CPU affinity mask (inherited by the threads it
/// spawns), through the C library. Elsewhere than Linux the sweep runs
/// once, unpinned.
mod affinity {
    /// `cpu_set_t`: 1024 CPUs.
    pub type Mask = [u64; 16];

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    #[cfg(target_os = "linux")]
    pub fn get() -> Mask {
        let mut mask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        assert_eq!(ok, 0, "sched_getaffinity failed");
        mask
    }

    #[cfg(target_os = "linux")]
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        let ok = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
        assert_eq!(ok, 0, "sched_setaffinity failed");
    }

    #[cfg(not(target_os = "linux"))]
    pub fn get() -> Mask {
        let mut mask = [0; 16];
        mask[0] = 1;
        mask
    }

    #[cfg(not(target_os = "linux"))]
    pub fn set(_: &Mask) {}

    pub fn count(mask: &Mask) -> usize {
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The first `cpus` CPUs of `mask`.
    pub fn first(mask: &Mask, cpus: usize) -> Mask {
        let mut out = [0; 16];
        let mut left = cpus;
        for bit in 0..1024 {
            if left > 0 && mask[bit / 64] & (1 << (bit % 64)) != 0 {
                out[bit / 64] |= 1 << (bit % 64);
                left -= 1;
            }
        }
        out
    }
}

criterion_group!(
    svd,
    bench_rank,
    bench_power_iters,
    bench_algorithms,
    bench_orthonormalize,
    bench_threads
);
criterion_main!(svd);
