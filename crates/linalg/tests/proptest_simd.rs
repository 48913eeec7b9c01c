//! Kernel-equivalence property tests: the runtime-dispatched SIMD kernels
//! against the retained scalar reference kernels (`blas::reference`).
//!
//! The contract being enforced:
//!
//! * GEMM is **bit-identical** across dispatch paths (AVX2 and scalar run
//!   the same per-element sequential-fma accumulation over `k`), for every
//!   shape — including empty and degenerate ones — every transpose
//!   combination, and both precisions.
//! * AXPY is bit-identical (element-wise fma in both paths).
//! * Dot products and `Transpose::Yes` GEMV use split accumulators under
//!   AVX2, so they only agree to a rounding-level relative bound.
//! * TRSM solves reconstruct the right-hand side to a conditioning-limited
//!   tolerance in all four (triangle, transpose) cases.
//! * `gemm_mixed` (f32 storage, f64 accumulation) is bit-identical to a
//!   full-precision GEMM over the *rounded* panel, and tracks the unrounded
//!   product to single-precision accuracy.
//! * Narrow right-hand sides (`n < NR`, `A` untransposed) take the unpacked
//!   GEMM path while the reference always packs, so every narrow case here
//!   also checks the two paths against each other bit for bit.
//!
//! Run with `GOFMM_FORCE_SCALAR=1` to pin the portable path (CI does); the
//! suite then checks the scalar kernels against themselves, which keeps the
//! bit-identity assertions meaningful on non-AVX2 hosts.

use gofmm_linalg::blas::reference;
use gofmm_linalg::{gemm, gemm_mixed, gemv, matmul, trsm_left, DenseMatrix, Transpose, Triangle};
use proptest::prelude::*;

/// Strategy: a matrix with dimensions in `[0, max_dim]` (empty shapes
/// included) and entries in `[-1, 1]`.
fn arb_matrix(max_dim: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (0..=max_dim, 0..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-1.0f64..1.0, r * c)
            .prop_map(move |data| DenseMatrix::from_vec(r, c, data))
    })
}

fn arb_transpose() -> impl Strategy<Value = Transpose> {
    (0usize..2).prop_map(|b| {
        if b == 0 {
            Transpose::No
        } else {
            Transpose::Yes
        }
    })
}

/// Strategy: a vector with length in `[0, max_len)` and entries in `[-1, 1]`.
fn arb_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    (0..max_len).prop_flat_map(|n| prop::collection::vec(-1.0f64..1.0, n))
}

/// GEMM operand shapes for `C[m x n] += op(A) op(B)` with inner dimension
/// `k`, honoring the requested transposes.
fn gemm_operands(
    m: usize,
    n: usize,
    k: usize,
    op_a: Transpose,
    op_b: Transpose,
    seed: u64,
) -> (DenseMatrix<f64>, DenseMatrix<f64>, DenseMatrix<f64>) {
    let fill = |r: usize, c: usize, salt: u64| {
        DenseMatrix::from_fn(r, c, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
                .wrapping_add(seed.wrapping_mul(salt));
            ((h >> 11) % 2048) as f64 / 1024.0 - 1.0
        })
    };
    let a = match op_a {
        Transpose::No => fill(m, k, 3),
        Transpose::Yes => fill(k, m, 3),
    };
    let b = match op_b {
        Transpose::No => fill(k, n, 7),
        Transpose::Yes => fill(n, k, 7),
    };
    let c = fill(m, n, 13);
    (a, b, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline contract: dispatched GEMM is bit-identical to the
    /// scalar-pinned reference for arbitrary shapes (empty included),
    /// transposes and scaling factors.
    #[test]
    fn gemm_dispatch_is_bit_identical_to_reference(
        m in 0usize..40, n in 0usize..12, k in 0usize..48,
        op_a in arb_transpose(), op_b in arb_transpose(),
        alpha in -2.0f64..2.0, beta_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let beta = [0.0, 1.0, -0.5][beta_sel];
        let (a, b, c0) = gemm_operands(m, n, k, op_a, op_b, seed);
        let mut c_simd = c0.clone();
        let mut c_ref = c0;
        gemm(alpha, &a, op_a, &b, op_b, beta, &mut c_simd);
        reference::gemm(alpha, &a, op_a, &b, op_b, beta, &mut c_ref);
        prop_assert_eq!(c_simd.data(), c_ref.data());
    }

    /// Same contract in single precision, where the 16x6 micro-kernel runs.
    #[test]
    fn gemm_dispatch_is_bit_identical_to_reference_f32(
        m in 0usize..40, n in 0usize..12, k in 0usize..48,
        op_a in arb_transpose(), op_b in arb_transpose(),
        seed in 0u64..1000,
    ) {
        let (a, b, c0) = gemm_operands(m, n, k, op_a, op_b, seed);
        let a = a.cast::<f32>();
        let b = b.cast::<f32>();
        let c0 = c0.cast::<f32>();
        let mut c_simd = c0.clone();
        let mut c_ref = c0;
        gemm(1.25f32, &a, op_a, &b, op_b, 1.0f32, &mut c_simd);
        reference::gemm(1.25f32, &a, op_a, &b, op_b, 1.0f32, &mut c_ref);
        prop_assert_eq!(c_simd.data(), c_ref.data());
    }

    /// Shapes larger than one cache block (MC=128, KC=256 in the packed
    /// loop) exercise the multi-panel path; identity must survive blocking.
    #[test]
    fn gemm_dispatch_identity_survives_cache_blocking(
        n in 1usize..8, seed in 0u64..100,
    ) {
        let (m, k) = (150, 300);
        let (a, b, c0) = gemm_operands(m, n, k, Transpose::No, Transpose::No, seed);
        let mut c_simd = c0.clone();
        let mut c_ref = c0;
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 1.0, &mut c_simd);
        reference::gemm(1.0, &a, Transpose::No, &b, Transpose::No, 1.0, &mut c_ref);
        prop_assert_eq!(c_simd.data(), c_ref.data());
    }

    /// An f32 narrow product whose inner dimension crosses a `KC = 256`
    /// block (and whose rows may span several `MC = 128` row blocks): the
    /// unpacked path must restart its accumulator at the block edge exactly
    /// where the packed reference does.
    #[test]
    fn gemm_narrow_f32_identity_survives_kc_blocks(
        m in 1usize..300, n in 1usize..6, k in 257usize..600,
        op_b in arb_transpose(), seed in 0u64..1000,
    ) {
        let (a, b, c0) = gemm_operands(m, n, k, Transpose::No, op_b, seed);
        let a = a.cast::<f32>();
        let b = b.cast::<f32>();
        let c0 = c0.cast::<f32>();
        let mut c_narrow = c0.clone();
        let mut c_ref = c0;
        gemm(0.75f32, &a, Transpose::No, &b, op_b, -0.5f32, &mut c_narrow);
        reference::gemm(0.75f32, &a, Transpose::No, &b, op_b, -0.5f32, &mut c_ref);
        prop_assert_eq!(c_narrow.data(), c_ref.data());
    }

    /// AXPY is element-wise fma in every path: bit-identical.
    #[test]
    fn axpy_dispatch_is_bit_identical(
        x in arb_vec(200),
        alpha in -2.0f64..2.0,
    ) {
        let y0: Vec<f64> = x.iter().map(|v| v * 0.5 - 0.25).collect();
        let mut y_simd = y0.clone();
        let mut y_ref = y0;
        gofmm_linalg::axpy(alpha, &x, &mut y_simd);
        reference::axpy(alpha, &x, &mut y_ref);
        prop_assert_eq!(y_simd, y_ref);
    }

    /// Dot uses split accumulators under AVX2, so only a rounding-level
    /// relative bound holds against the sequential-fma reference.
    #[test]
    fn dot_dispatch_matches_reference_to_roundoff(
        x in arb_vec(300),
    ) {
        let y: Vec<f64> = x.iter().map(|v| 0.75 - v).collect();
        let d_simd = gofmm_linalg::dot(&x, &y);
        let d_ref = reference::dot(&x, &y);
        let abs_budget: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
        let tol = f64::EPSILON * (x.len() as f64 + 4.0) * (abs_budget + 1.0);
        prop_assert!((d_simd - d_ref).abs() <= tol,
            "dot drift {} over tol {tol}", (d_simd - d_ref).abs());
    }

    /// GEMV: the `Transpose::No` path is axpy-based (bit-identical), the
    /// `Transpose::Yes` path is dot-based (roundoff-bounded).
    #[test]
    fn gemv_dispatch_matches_reference(a in arb_matrix(24), op in arb_transpose()) {
        let (m, n) = match op {
            Transpose::No => (a.rows(), a.cols()),
            Transpose::Yes => (a.cols(), a.rows()),
        };
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y0: Vec<f64> = (0..m).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y_simd = y0.clone();
        let mut y_ref = y0;
        gemv(0.8, &a, op, &x, 0.5, &mut y_simd);
        reference::gemv(0.8, &a, op, &x, 0.5, &mut y_ref);
        match op {
            Transpose::No => prop_assert_eq!(y_simd, y_ref),
            Transpose::Yes => {
                let k = a.rows() as f64;
                for (s, r) in y_simd.iter().zip(&y_ref) {
                    prop_assert!((s - r).abs() <= f64::EPSILON * (k + 4.0) * (r.abs() + 1.0));
                }
            }
        }
    }

    /// All four TRSM cases (lower/upper x transpose/no-transpose) solve
    /// `op(T) X = B` to a conditioning-limited tolerance.
    #[test]
    fn trsm_solves_all_four_cases(
        n in 1usize..24, ncols in 1usize..5,
        lower_sel in 0usize..2, transpose_sel in 0usize..2,
    ) {
        let (lower, transpose) = (lower_sel == 1, transpose_sel == 1);
        // Unit-dominant triangular factor keeps the solve well conditioned.
        let t = DenseMatrix::<f64>::from_fn(n, n, |i, j| {
            let (r, c) = if lower { (i, j) } else { (j, i) };
            if c > r { 0.0 }
            else if c == r { 2.0 + 0.1 * (r as f64) }
            else { 0.4 * (((r * 5 + c * 3) % 7) as f64 / 7.0 - 0.5) }
        });
        let x = DenseMatrix::<f64>::from_fn(n, ncols, |i, j| ((i * 3 + j) % 5) as f64 * 0.3 - 0.6);
        let op_t = if transpose { &t.transpose() } else { &t };
        let b = matmul(op_t, &x);
        let mut sol = b;
        let triangle = if lower { Triangle::Lower } else { Triangle::Upper };
        trsm_left(triangle, transpose, &t, &mut sol);
        prop_assert!(sol.sub(&x).norm_max() < 1e-9);
    }

    /// `gemm_mixed` must agree bit-for-bit with a full-f64 GEMM over the
    /// rounded (f32-stored) panel: storage is the only thing that is
    /// single precision, every accumulation runs in f64.
    #[test]
    fn gemm_mixed_is_exactly_f64_gemm_over_rounded_panel(
        m in 0usize..40, n in 0usize..8, k in 0usize..48, seed in 0u64..1000,
    ) {
        let (a, b, c0) = gemm_operands(m, n, k, Transpose::No, Transpose::No, seed);
        let a32 = a.cast::<f32>();
        let a_rounded = a32.cast::<f64>();
        let mut c_mixed = c0.clone();
        let mut c_full = c0;
        gemm_mixed(1.0f64, &a32, &b, 1.0f64, &mut c_mixed);
        gemm(1.0, &a_rounded, Transpose::No, &b, Transpose::No, 1.0, &mut c_full);
        prop_assert_eq!(c_mixed.data(), c_full.data());
    }

    /// Narrow `gemm_mixed` upconverts `A` one column at a time on the
    /// unpacked path; it must equal, bit for bit, the packed scalar
    /// reference over the upcast panel, within and across `KC` and `MC`
    /// blocks.
    #[test]
    fn gemm_mixed_narrow_is_reference_over_upcast_panel(
        m in 1usize..300, n in 1usize..6, k in 1usize..600,
        alpha in -2.0f64..2.0, seed in 0u64..1000,
    ) {
        let (a, b, c0) = gemm_operands(m, n, k, Transpose::No, Transpose::No, seed);
        let a32 = a.cast::<f32>();
        let mut c_mixed = c0.clone();
        let mut c_ref = c0;
        gemm_mixed(alpha, &a32, &b, 1.0f64, &mut c_mixed);
        reference::gemm(alpha, &a32.cast::<f64>(), Transpose::No, &b, Transpose::No, 1.0, &mut c_ref);
        prop_assert_eq!(c_mixed.data(), c_ref.data());
    }

    /// And against the *unrounded* panel the error is bounded by the f32
    /// storage rounding, amortized over the inner dimension.
    #[test]
    fn gemm_mixed_tracks_unrounded_panel_to_f32_accuracy(
        m in 1usize..40, n in 1usize..8, k in 1usize..48, seed in 0u64..1000,
    ) {
        let (a, b, _) = gemm_operands(m, n, k, Transpose::No, Transpose::No, seed);
        let a32 = a.cast::<f32>();
        let mut c_mixed = DenseMatrix::<f64>::zeros(m, n);
        let mut c_full = DenseMatrix::<f64>::zeros(m, n);
        gemm_mixed(1.0f64, &a32, &b, 0.0f64, &mut c_mixed);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c_full);
        let tol = f32::EPSILON as f64 * (k as f64 + 1.0);
        prop_assert!(c_mixed.sub(&c_full).norm_max() <= tol,
            "mixed drift {} over tol {tol}", c_mixed.sub(&c_full).norm_max());
    }
}
