//! Runtime-dispatched SIMD micro-kernels behind the dense BLAS layer.
//!
//! The GEMM in [`crate::blas`], the triangular solves and the Householder
//! reflection applies all bottom out in three primitives: an `MR x NR`
//! register micro-kernel over packed panels, a dot product and an axpy.
//! The packed GEMM path runs the micro-kernel; its narrow path (fewer than
//! `NR` right-hand sides) runs the axpy. This module provides two
//! implementations of each:
//!
//! * an x86-64 AVX2/FMA path written against `core::arch` intrinsics
//!   (`8 x 6` tiles of f64, `16 x 6` tiles of f32 — twelve ymm accumulators,
//!   two panel loads and one broadcast per update, fitting the sixteen
//!   architectural vector registers), and
//! * a portable scalar fallback with the exact same per-element accumulation
//!   order.
//!
//! The path is chosen **once per process** via [`simd_level`]:
//! `is_x86_feature_detected!("avx2")` + `("fma")` at first use, overridable
//! with the `GOFMM_FORCE_SCALAR` environment variable (any non-empty value
//! other than `0`) so CI can exercise the portable path on AVX2 hardware.
//!
//! # Bit-compatibility contract
//!
//! The GEMM micro-kernel accumulates every output element over `k` in
//! increasing order with one fused multiply-add per step; AVX2 lanes map
//! one-to-one onto output elements (`vfmaddxxxpd` is a per-lane IEEE fma), so
//! the SIMD and scalar micro-kernels produce **bit-identical** results. The
//! same holds for [`crate::blas::axpy`], which is element-wise. The narrow
//! GEMM path zeroes an accumulator and axpys the columns of `A` into it in
//! increasing `k`, which is the micro-kernel's per-element order (an fma's
//! product is exact, so the operand order inside it does not matter);
//! [`crate::blas::gemm`] is therefore bit-identical on either dispatch path
//! and on either GEMM path. [`crate::blas::dot`]
//! splits its accumulation
//! across vector lanes and recombines, so its SIMD result may differ from
//! the scalar one in the last bits (the kernel-equivalence suite bounds the
//! drift in ULPs).

use crate::scalar::Scalar;
use std::sync::OnceLock;

/// Maximum `MR * NR` accumulator-tile footprint across supported precisions
/// (16 x 6 for f32). Callers hand the micro-kernel a `&mut [T]` of at least
/// `MR * NR` elements; a fixed-size stack array of this size always fits.
pub const ACC_TILE: usize = 96;

/// Instruction set selected for the dense kernels of this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops (also the `GOFMM_FORCE_SCALAR` override).
    Scalar,
    /// x86-64 AVX2 + FMA intrinsics.
    Avx2,
}

impl SimdLevel {
    /// Short human-readable name ("scalar"/"avx2"), used in bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The dispatch decision, made once per process and cached.
///
/// Honors `GOFMM_FORCE_SCALAR` (any non-empty value other than `0`) before
/// probing CPU features, so the portable fallback is testable on AVX2 hosts.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var("GOFMM_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Portable reference micro-kernel: overwrite `acc[c*mr + r]` with
/// `sum_p a[p*mr + r] * b[p*nr + c]`, accumulated in increasing `p` with one
/// fma per step. This is the exact accumulation order of the AVX2 kernels
/// (and of the pre-SIMD seed GEMM), so results are bit-identical across
/// dispatch paths.
pub fn microkernel_scalar<T: Scalar>(
    mr: usize,
    nr: usize,
    kb: usize,
    a: &[T],
    b: &[T],
    acc: &mut [T],
) {
    debug_assert!(a.len() >= kb * mr);
    debug_assert!(b.len() >= kb * nr);
    let acc = &mut acc[..mr * nr];
    for v in acc.iter_mut() {
        *v = T::zero();
    }
    for p in 0..kb {
        let arow = &a[p * mr..p * mr + mr];
        let brow = &b[p * nr..p * nr + nr];
        for (c, bv) in brow.iter().enumerate() {
            let tile = &mut acc[c * mr..(c + 1) * mr];
            for (av, cv) in arow.iter().zip(tile.iter_mut()) {
                *cv = av.mul_add(*bv, *cv);
            }
        }
    }
}

/// Portable dot product: sequential fma accumulation.
pub fn dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc = T::zero();
    for (a, b) in x.iter().zip(y.iter()) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

/// Portable axpy: `y[i] = fma(alpha, x[i], y[i])`.
pub fn axpy_scalar<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    for (yv, xv) in y.iter_mut().zip(x.iter()) {
        *yv = alpha.mul_add(*xv, *yv);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2/FMA kernels. All functions here are `unsafe` because of
    //! `#[target_feature]`; callers must have checked [`super::simd_level`].
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// 8 x 6 f64 micro-kernel: twelve 4-lane accumulators, overwriting
    /// `acc[c*8 + r]` with the packed-panel product.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `a.len() >= kb*8`, `b.len() >= kb*6`,
    /// `acc.len() >= 48`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_f64_8x6(kb: usize, a: &[f64], b: &[f64], acc: &mut [f64]) {
        debug_assert!(a.len() >= kb * 8);
        debug_assert!(b.len() >= kb * 6);
        debug_assert!(acc.len() >= 48);
        let mut c00 = _mm256_setzero_pd();
        let mut c01 = _mm256_setzero_pd();
        let mut c10 = _mm256_setzero_pd();
        let mut c11 = _mm256_setzero_pd();
        let mut c20 = _mm256_setzero_pd();
        let mut c21 = _mm256_setzero_pd();
        let mut c30 = _mm256_setzero_pd();
        let mut c31 = _mm256_setzero_pd();
        let mut c40 = _mm256_setzero_pd();
        let mut c41 = _mm256_setzero_pd();
        let mut c50 = _mm256_setzero_pd();
        let mut c51 = _mm256_setzero_pd();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for p in 0..kb {
            let a0 = _mm256_loadu_pd(ap.add(p * 8));
            let a1 = _mm256_loadu_pd(ap.add(p * 8 + 4));
            let b0 = _mm256_set1_pd(*bp.add(p * 6));
            c00 = _mm256_fmadd_pd(a0, b0, c00);
            c01 = _mm256_fmadd_pd(a1, b0, c01);
            let b1 = _mm256_set1_pd(*bp.add(p * 6 + 1));
            c10 = _mm256_fmadd_pd(a0, b1, c10);
            c11 = _mm256_fmadd_pd(a1, b1, c11);
            let b2 = _mm256_set1_pd(*bp.add(p * 6 + 2));
            c20 = _mm256_fmadd_pd(a0, b2, c20);
            c21 = _mm256_fmadd_pd(a1, b2, c21);
            let b3 = _mm256_set1_pd(*bp.add(p * 6 + 3));
            c30 = _mm256_fmadd_pd(a0, b3, c30);
            c31 = _mm256_fmadd_pd(a1, b3, c31);
            let b4 = _mm256_set1_pd(*bp.add(p * 6 + 4));
            c40 = _mm256_fmadd_pd(a0, b4, c40);
            c41 = _mm256_fmadd_pd(a1, b4, c41);
            let b5 = _mm256_set1_pd(*bp.add(p * 6 + 5));
            c50 = _mm256_fmadd_pd(a0, b5, c50);
            c51 = _mm256_fmadd_pd(a1, b5, c51);
        }
        let cp = acc.as_mut_ptr();
        _mm256_storeu_pd(cp, c00);
        _mm256_storeu_pd(cp.add(4), c01);
        _mm256_storeu_pd(cp.add(8), c10);
        _mm256_storeu_pd(cp.add(12), c11);
        _mm256_storeu_pd(cp.add(16), c20);
        _mm256_storeu_pd(cp.add(20), c21);
        _mm256_storeu_pd(cp.add(24), c30);
        _mm256_storeu_pd(cp.add(28), c31);
        _mm256_storeu_pd(cp.add(32), c40);
        _mm256_storeu_pd(cp.add(36), c41);
        _mm256_storeu_pd(cp.add(40), c50);
        _mm256_storeu_pd(cp.add(44), c51);
    }

    /// 16 x 6 f32 micro-kernel: twelve 8-lane accumulators, overwriting
    /// `acc[c*16 + r]` with the packed-panel product.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `a.len() >= kb*16`, `b.len() >= kb*6`,
    /// `acc.len() >= 96`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_f32_16x6(kb: usize, a: &[f32], b: &[f32], acc: &mut [f32]) {
        debug_assert!(a.len() >= kb * 16);
        debug_assert!(b.len() >= kb * 6);
        debug_assert!(acc.len() >= 96);
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for p in 0..kb {
            let a0 = _mm256_loadu_ps(ap.add(p * 16));
            let a1 = _mm256_loadu_ps(ap.add(p * 16 + 8));
            let b0 = _mm256_set1_ps(*bp.add(p * 6));
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a1, b0, c01);
            let b1 = _mm256_set1_ps(*bp.add(p * 6 + 1));
            c10 = _mm256_fmadd_ps(a0, b1, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let b2 = _mm256_set1_ps(*bp.add(p * 6 + 2));
            c20 = _mm256_fmadd_ps(a0, b2, c20);
            c21 = _mm256_fmadd_ps(a1, b2, c21);
            let b3 = _mm256_set1_ps(*bp.add(p * 6 + 3));
            c30 = _mm256_fmadd_ps(a0, b3, c30);
            c31 = _mm256_fmadd_ps(a1, b3, c31);
            let b4 = _mm256_set1_ps(*bp.add(p * 6 + 4));
            c40 = _mm256_fmadd_ps(a0, b4, c40);
            c41 = _mm256_fmadd_ps(a1, b4, c41);
            let b5 = _mm256_set1_ps(*bp.add(p * 6 + 5));
            c50 = _mm256_fmadd_ps(a0, b5, c50);
            c51 = _mm256_fmadd_ps(a1, b5, c51);
        }
        let cp = acc.as_mut_ptr();
        _mm256_storeu_ps(cp, c00);
        _mm256_storeu_ps(cp.add(8), c01);
        _mm256_storeu_ps(cp.add(16), c10);
        _mm256_storeu_ps(cp.add(24), c11);
        _mm256_storeu_ps(cp.add(32), c20);
        _mm256_storeu_ps(cp.add(40), c21);
        _mm256_storeu_ps(cp.add(48), c30);
        _mm256_storeu_ps(cp.add(56), c31);
        _mm256_storeu_ps(cp.add(64), c40);
        _mm256_storeu_ps(cp.add(72), c41);
        _mm256_storeu_ps(cp.add(80), c50);
        _mm256_storeu_ps(cp.add(88), c51);
    }

    /// AVX2 f64 dot product: four independent 4-lane accumulators over the
    /// vector body, a tree reduction, then a sequential-fma scalar tail.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_f64(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut s0 = _mm256_setzero_pd();
        let mut s1 = _mm256_setzero_pd();
        let mut s2 = _mm256_setzero_pd();
        let mut s3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            s0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), s0);
            s1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
                s1,
            );
            s2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 8)),
                _mm256_loadu_pd(yp.add(i + 8)),
                s2,
            );
            s3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 12)),
                _mm256_loadu_pd(yp.add(i + 12)),
                s3,
            );
            i += 16;
        }
        while i + 4 <= n {
            s0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), s0);
            i += 4;
        }
        let s = _mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3));
        let lo = _mm256_castpd256_pd128(s);
        let hi = _mm256_extractf128_pd(s, 1);
        let q = _mm_add_pd(lo, hi);
        let h = _mm_add_sd(q, _mm_unpackhi_pd(q, q));
        let mut acc = _mm_cvtsd_f64(h);
        while i < n {
            acc = (*xp.add(i)).mul_add(*yp.add(i), acc);
            i += 1;
        }
        acc
    }

    /// AVX2 f32 dot product (see [`dot_f64`] for the reduction shape).
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut s0 = _mm256_setzero_ps();
        let mut s1 = _mm256_setzero_ps();
        let mut s2 = _mm256_setzero_ps();
        let mut s3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            s0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), s0);
            s1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + 8)),
                _mm256_loadu_ps(yp.add(i + 8)),
                s1,
            );
            s2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + 16)),
                _mm256_loadu_ps(yp.add(i + 16)),
                s2,
            );
            s3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + 24)),
                _mm256_loadu_ps(yp.add(i + 24)),
                s3,
            );
            i += 32;
        }
        while i + 8 <= n {
            s0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), s0);
            i += 8;
        }
        let s = _mm256_add_ps(_mm256_add_ps(s0, s1), _mm256_add_ps(s2, s3));
        let lo = _mm256_castps256_ps128(s);
        let hi = _mm256_extractf128_ps(s, 1);
        let q = _mm_add_ps(lo, hi);
        let q = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 1));
        let mut acc = _mm_cvtss_f32(q);
        while i < n {
            acc = (*xp.add(i)).mul_add(*yp.add(i), acc);
            i += 1;
        }
        acc
    }

    /// AVX2 f64 axpy: element-wise `y[i] = fma(alpha, x[i], y[i])`,
    /// bit-identical to the scalar fallback.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let av = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 4 <= n {
            let r = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), r);
            i += 4;
        }
        while i < n {
            *yp.add(i) = alpha.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// AVX2 f32 axpy (see [`axpy_f64`]).
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let av = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let r = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), r);
            i += 8;
        }
        while i < n {
            *yp.add(i) = alpha.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }
}

/// Dispatched f64 micro-kernel (8 x 6 tile); see [`microkernel_scalar`] for
/// the contract.
pub fn microkernel_f64(kb: usize, a: &[f64], b: &[f64], acc: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`; slice
        // bounds are the caller's packed-panel invariant (debug-asserted).
        unsafe { avx2::microkernel_f64_8x6(kb, a, b, acc) };
        return;
    }
    microkernel_scalar::<f64>(8, 6, kb, a, b, acc);
}

/// Dispatched f32 micro-kernel (16 x 6 tile); see [`microkernel_scalar`] for
/// the contract.
pub fn microkernel_f32(kb: usize, a: &[f32], b: &[f32], acc: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        unsafe { avx2::microkernel_f32_16x6(kb, a, b, acc) };
        return;
    }
    microkernel_scalar::<f32>(16, 6, kb, a, b, acc);
}

/// Dispatched f64 dot product.
pub fn dot_f64(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        return unsafe { avx2::dot_f64(x, y) };
    }
    dot_scalar(x, y)
}

/// Dispatched f32 dot product.
pub fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        return unsafe { avx2::dot_f32(x, y) };
    }
    dot_scalar(x, y)
}

/// Dispatched f64 axpy (bit-identical across paths).
pub fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        unsafe { avx2::axpy_f64(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

/// Dispatched f32 axpy (bit-identical across paths).
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        unsafe { avx2::axpy_f32(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 19) as f64 - 9.0) * scale)
            .collect()
    }

    #[test]
    fn dispatched_dot_close_to_scalar() {
        for n in [0, 1, 3, 4, 5, 15, 16, 17, 64, 100, 1000] {
            let x = seq(n, 0.25);
            let y = seq(n, 0.5);
            let d = dot_f64(&x, &y);
            let s = dot_scalar(&x, &y);
            assert!(
                (d - s).abs() <= 1e-10 * (1.0 + s.abs()),
                "n={n}: {d} vs {s}"
            );
        }
    }

    #[test]
    fn dispatched_axpy_is_bit_identical_to_scalar() {
        for n in [0, 1, 3, 4, 7, 8, 33, 257] {
            let x = seq(n, 0.125);
            let mut y1 = seq(n, 1.0);
            let mut y2 = y1.clone();
            axpy_f64(1.5, &x, &mut y1);
            axpy_scalar(1.5, &x, &mut y2);
            assert_eq!(y1, y2, "n={n}");
        }
    }

    #[test]
    fn dispatched_microkernel_is_bit_identical_to_scalar() {
        for kb in [0, 1, 2, 7, 64] {
            let a = seq(kb * 8, 0.5);
            let b = seq(kb * 6, 0.25);
            let mut acc1 = [0.0f64; ACC_TILE];
            let mut acc2 = [1.0f64; ACC_TILE]; // overwrite contract: stale values must not leak
            microkernel_f64(kb, &a, &b, &mut acc1[..48]);
            microkernel_scalar::<f64>(8, 6, kb, &a, &b, &mut acc2[..48]);
            assert_eq!(&acc1[..48], &acc2[..48], "kb={kb}");
        }
    }

    #[test]
    fn simd_level_is_stable_and_named() {
        let l = simd_level();
        assert_eq!(l, simd_level());
        assert!(matches!(l.name(), "scalar" | "avx2"));
    }
}
