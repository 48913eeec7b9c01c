//! BLAS-like dense kernels: GEMM, GEMV, dot products and norm estimates.
//!
//! These are the work-horses behind skeletonization (`GEQP3`/`TRSM` call into
//! them), the N2S/S2S/S2N/L2L evaluation tasks and the ULV sweeps. The GEMM
//! has two paths:
//!
//! * **Packed.** A BLIS-style cache-blocked kernel: operands are copied into
//!   contiguous `MR`/`NR` strips with row/column **slice** copies (no
//!   per-element bounds checks), then multiplied by the register
//!   micro-kernel dispatched through [`Scalar::gemm_microkernel`] — AVX2/FMA
//!   on x86-64, a portable scalar loop elsewhere (see [`crate::simd`]). The
//!   pack buffers are sized to the call (strip stride `min(KC, k)`, only the
//!   strips the call needs) and come from a per-thread arena
//!   ([`Scalar::with_gemm_arena`]) that only grows. It is never zero-filled:
//!   packing writes every element it later reads, padding included. So a
//!   repeated call allocates nothing.
//! * **Narrow.** With `A` untransposed and fewer than `NR` right-hand sides,
//!   packing would copy all of `A` and pad `B` to `NR` columns for at most
//!   `NR - 1` useful ones. Instead, for each block of up to `MC` rows and
//!   `KC` inner indices, it zeroes an arena accumulator, streams each column
//!   of `A` once through the dispatched axpy into every accumulator column,
//!   and folds the block into `C`.
//!
//! Both paths, on both dispatch levels, accumulate each output element over
//! a `KC` block in increasing `k` with one fma per step from a zero start,
//! then fold it in as `c = fma(alpha, acc, c)`. GEMM results are therefore
//! bit-identical across paths and dispatch levels. A transposed `A` stays
//! packed: reading its rows in place would need the dot kernel, whose split
//! lanes change the bits.
//!
//! [`gemm_mixed`] is the mixed-precision variant the serving layer uses for
//! `f32`-stored interaction panels: packing (or, on the narrow path, a
//! per-column copy into the arena) upconverts the panel to the accumulator
//! precision `T`, so all arithmetic runs in `T` (f64 accumulation over f32
//! storage) through the very same kernels.
//!
//! The pre-SIMD scalar kernels are retained verbatim under [`mod@reference`] as
//! the comparison baseline for the kernel-equivalence suite and the bench
//! grid.

use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;
use crate::simd;
use std::any::Any;

/// Whether an operand of [`gemm`] is used as-is or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Cache-block sizes for the packed GEMM. Chosen for ~32 KiB L1 / 1 MiB L2;
/// `MC` is divisible by both precisions' `MR` so A-strips never straddle the
/// block edge.
const MC: usize = 128;
const KC: usize = 256;
const NC: usize = 512;

/// Lossless storage-to-accumulator upconversion used by the packing step
/// (`f32 -> f64` for mixed panels, identity otherwise).
#[inline(always)]
fn up<P: Scalar, T: Scalar>(x: P) -> T {
    T::from_f64(x.to_f64())
}

/// General matrix-matrix multiply: `C = alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Dimensions are checked at runtime. Narrow right-hand sides run unpacked;
/// everything else is packed into cache-friendly panels and multiplied with
/// the runtime-dispatched `MR x NR` micro-kernel (see the module docs).
/// Results are bit-identical between the SIMD and scalar dispatch paths
/// (see [`crate::simd`] for why).
pub fn gemm<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    op_b: Transpose,
    beta: T,
    c: &mut DenseMatrix<T>,
) {
    gemm_core(alpha, a, op_a, b, op_b, beta, c, false);
}

/// Mixed-precision multiply `C = alpha * A * B + beta * C` where `A` is
/// stored in the reduced panel precision [`Scalar::PanelScalar`] and all
/// arithmetic accumulates in `T`.
///
/// This is the serving-layer kernel for `f32`-stored far-field panels: the
/// pack step (or the narrow path's column copy) upconverts `A` losslessly
/// to `T`, after which the standard `T` kernels run — i.e. f32 storage, f64
/// accumulation when `T = f64`. Only the no-transpose form is provided
/// because the evaluator multiplies its panels untransposed.
pub fn gemm_mixed<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T::PanelScalar>,
    b: &DenseMatrix<T>,
    beta: T,
    c: &mut DenseMatrix<T>,
) {
    gemm_core(alpha, a, Transpose::No, b, Transpose::No, beta, c, false);
}

/// The shared GEMM behind [`gemm`], [`gemm_mixed`] and [`reference::gemm`].
/// `P` is the storage precision of `A` (equal to `T` except for mixed
/// panels); `force_scalar` pins the packed path and the scalar micro-kernel
/// for the retained reference path.
#[allow(clippy::too_many_arguments)]
fn gemm_core<P: Scalar, T: Scalar>(
    alpha: T,
    a: &DenseMatrix<P>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    op_b: Transpose,
    beta: T,
    c: &mut DenseMatrix<T>,
    force_scalar: bool,
) {
    let (m, ka) = match op_a {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    };
    let (kb, n) = match op_b {
        Transpose::No => (b.rows(), b.cols()),
        Transpose::Yes => (b.cols(), b.rows()),
    };
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!(c.rows(), m, "gemm output row mismatch");
    assert_eq!(c.cols(), n, "gemm output col mismatch");
    let k = ka;

    // Scale C by beta once up front.
    if beta != T::one() {
        if beta == T::zero() {
            for v in c.data_mut() {
                *v = T::zero();
            }
        } else {
            for v in c.data_mut() {
                *v *= beta;
            }
        }
    }
    if m == 0 || n == 0 || k == 0 || alpha == T::zero() {
        return;
    }

    T::with_gemm_arena(|arena| {
        if op_a == Transpose::No && n < T::NR && !force_scalar {
            gemm_narrow(alpha, a, b, op_b, c, arena);
        } else {
            gemm_packed(alpha, a, op_a, b, op_b, c, force_scalar, arena);
        }
    });
}

/// The first `len` elements of a GEMM arena, growing it if needed. The
/// contents are stale: callers write every element before they read it.
fn arena_prefix<T: Scalar>(arena: &mut Vec<T>, len: usize) -> &mut [T] {
    if arena.len() < len {
        arena.resize(len, T::zero());
    }
    &mut arena[..len]
}

/// Unpacked `C += alpha * A * op_b(B)` for fewer than `T::NR` columns.
///
/// Packing would copy all of `A` and pad `B` to a full `NR`-column strip for
/// at most `NR - 1` useful columns. Instead, per row block and `KC` block,
/// an accumulator is zeroed, each column `p` of `A` is streamed once and
/// axpy'd into every accumulator column with weight `B(p, j)`, and the block
/// is folded in as `c[:, j] = fma(alpha, acc[:, j], c[:, j])`. That is the
/// packed path's per-element fma order, so the two paths agree bit for bit.
fn gemm_narrow<P: Scalar, T: Scalar>(
    alpha: T,
    a: &DenseMatrix<P>,
    b: &DenseMatrix<T>,
    op_b: Transpose,
    c: &mut DenseMatrix<T>,
    arena: &mut Vec<T>,
) {
    let (m, k, n) = (a.rows(), a.cols(), c.cols());
    // Rows go in blocks of at most `MC`, which bounds the arena at
    // `MC * n` accumulator elements whatever `m` is.
    let mc = MC.min(m);
    // `A` stored in the accumulator precision is read in place; a mixed
    // panel is upconverted one column at a time into the arena.
    let a_native = (a as &dyn Any).downcast_ref::<DenseMatrix<T>>();
    let up_len = if a_native.is_some() { 0 } else { mc };
    let (acc, a_up) = arena_prefix(arena, mc * n + up_len).split_at_mut(mc * n);
    let b_at = |p: usize, j: usize| match op_b {
        Transpose::No => b.col(j)[p],
        Transpose::Yes => b.col(p)[j],
    };
    let mut ic = 0;
    while ic < m {
        let mb = mc.min(m - ic);
        let acc = &mut acc[..mb * n];
        let a_up = &mut a_up[..up_len.min(mb)];
        let mut pc = 0;
        while pc < k {
            let kb = KC.min(k - pc);
            acc.fill(T::zero());
            for p in pc..pc + kb {
                let a_col: &[T] = match a_native {
                    Some(a) => &a.col(p)[ic..ic + mb],
                    None => {
                        for (d, s) in a_up.iter_mut().zip(&a.col(p)[ic..ic + mb]) {
                            *d = up(*s);
                        }
                        a_up
                    }
                };
                for (j, acc_col) in acc.chunks_exact_mut(mb).enumerate() {
                    T::axpy_kernel(b_at(p, j), a_col, acc_col);
                }
            }
            for (j, acc_col) in acc.chunks_exact(mb).enumerate() {
                T::axpy_kernel(alpha, acc_col, &mut c.col_mut(j)[ic..ic + mb]);
            }
            pc += kb;
        }
        ic += mb;
    }
}

/// Packed, cache-blocked `C += alpha * op_a(A) * op_b(B)` over `MR x NR`
/// micro-tiles. The pack buffers come from `arena`, sized to the call: the
/// strip stride is `min(KC, k)` and only the strips the call needs exist.
#[allow(clippy::too_many_arguments)]
fn gemm_packed<P: Scalar, T: Scalar>(
    alpha: T,
    a: &DenseMatrix<P>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    op_b: Transpose,
    c: &mut DenseMatrix<T>,
    force_scalar: bool,
    arena: &mut Vec<T>,
) {
    let (m, n) = (c.rows(), c.cols());
    let k = match op_b {
        Transpose::No => b.rows(),
        Transpose::Yes => b.cols(),
    };
    let mr = T::MR;
    let nr = T::NR;
    debug_assert!(MC % mr == 0, "MC must be a multiple of MR");
    debug_assert!(mr * nr <= simd::ACC_TILE);

    // A is packed in `mr`-row strips (`a_pack[strip][p*mr + r]`), B in
    // `nr`-column strips (`b_pack[strip][p*nr + c]`), both zero-padded to
    // full strip width so the micro-kernel always runs complete tiles.
    let kc = KC.min(k);
    let a_len = MC.min(m).div_ceil(mr) * mr * kc;
    let b_len = NC.min(n).div_ceil(nr) * nr * kc;
    let (a_pack, b_pack) = arena_prefix(arena, a_len + b_len).split_at_mut(a_len);
    let mut acc = [T::zero(); simd::ACC_TILE];
    let acc = &mut acc[..mr * nr];

    let mut jc = 0;
    while jc < n {
        let nb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb_ = kc.min(k - pc);
            // Pack B panel with contiguous column-slice reads.
            for jstrip in 0..nb.div_ceil(nr) {
                let j0 = jstrip * nr;
                let cmax = nr.min(nb - j0);
                let dst = &mut b_pack[jstrip * kc * nr..][..kb_ * nr];
                match op_b {
                    Transpose::No => {
                        for cc in 0..nr {
                            if cc < cmax {
                                let src = &b.col(jc + j0 + cc)[pc..pc + kb_];
                                for (p, v) in src.iter().enumerate() {
                                    dst[p * nr + cc] = *v;
                                }
                            } else {
                                for p in 0..kb_ {
                                    dst[p * nr + cc] = T::zero();
                                }
                            }
                        }
                    }
                    Transpose::Yes => {
                        // bt(p, j) = B(j, p): row `p` of the packed strip is a
                        // contiguous run of column `pc + p`.
                        for p in 0..kb_ {
                            let src = &b.col(pc + p)[jc + j0..jc + j0 + cmax];
                            let row = &mut dst[p * nr..(p + 1) * nr];
                            row[..cmax].copy_from_slice(src);
                            for v in &mut row[cmax..] {
                                *v = T::zero();
                            }
                        }
                    }
                }
            }
            let mut ic = 0;
            while ic < m {
                let mb = MC.min(m - ic);
                // Pack A panel in `mr`-row strips with slice reads, upconverting
                // storage precision to the accumulator precision.
                for istrip in 0..mb.div_ceil(mr) {
                    let i0 = istrip * mr;
                    let rmax = mr.min(mb - i0);
                    let dst = &mut a_pack[istrip * kc * mr..][..kb_ * mr];
                    match op_a {
                        Transpose::No => {
                            for p in 0..kb_ {
                                let src = &a.col(pc + p)[ic + i0..ic + i0 + rmax];
                                let row = &mut dst[p * mr..(p + 1) * mr];
                                for (rv, sv) in row.iter_mut().zip(src.iter()) {
                                    *rv = up(*sv);
                                }
                                for rv in &mut row[rmax..] {
                                    *rv = T::zero();
                                }
                            }
                        }
                        Transpose::Yes => {
                            // at(i, p) = A(p, i): lane `r` of the strip reads a
                            // contiguous run of column `ic + i0 + r`.
                            for r in 0..mr {
                                if r < rmax {
                                    let src = &a.col(ic + i0 + r)[pc..pc + kb_];
                                    for (p, v) in src.iter().enumerate() {
                                        dst[p * mr + r] = up(*v);
                                    }
                                } else {
                                    for p in 0..kb_ {
                                        dst[p * mr + r] = T::zero();
                                    }
                                }
                            }
                        }
                    }
                }
                // Macro kernel over micro tiles.
                for jstrip in 0..nb.div_ceil(nr) {
                    let j0 = jstrip * nr;
                    let cmax = nr.min(nb - j0);
                    let b_strip = &b_pack[jstrip * kc * nr..][..kb_ * nr];
                    for istrip in 0..mb.div_ceil(mr) {
                        let i0 = istrip * mr;
                        let rmax = mr.min(mb - i0);
                        let a_strip = &a_pack[istrip * kc * mr..][..kb_ * mr];
                        if force_scalar {
                            simd::microkernel_scalar(mr, nr, kb_, a_strip, b_strip, acc);
                        } else {
                            T::gemm_microkernel(kb_, a_strip, b_strip, acc);
                        }
                        for cc in 0..cmax {
                            let tile = &acc[cc * mr..cc * mr + rmax];
                            let col = &mut c.col_mut(jc + j0 + cc)[ic + i0..ic + i0 + rmax];
                            for (cv, tv) in col.iter_mut().zip(tile.iter()) {
                                *cv = alpha.mul_add(*tv, *cv);
                            }
                        }
                    }
                }
                ic += mb;
            }
            pc += kb_;
        }
        jc += nb;
    }
}

/// Convenience: `C = A * B` (allocating).
pub fn matmul<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    gemm(
        T::one(),
        a,
        Transpose::No,
        b,
        Transpose::No,
        T::zero(),
        &mut c,
    );
    c
}

/// Convenience: `C = A^T * B` (allocating).
pub fn matmul_tn<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    let mut c = DenseMatrix::zeros(a.cols(), b.cols());
    gemm(
        T::one(),
        a,
        Transpose::Yes,
        b,
        Transpose::No,
        T::zero(),
        &mut c,
    );
    c
}

/// Convenience: `C = A * B^T` (allocating).
pub fn matmul_nt<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    let mut c = DenseMatrix::zeros(a.rows(), b.rows());
    gemm(
        T::one(),
        a,
        Transpose::No,
        b,
        Transpose::Yes,
        T::zero(),
        &mut c,
    );
    c
}

/// Matrix-vector multiply `y = alpha * op(A) x + beta * y`.
///
/// The no-transpose form sweeps columns with the dispatched axpy (bit-
/// identical across dispatch paths); the transposed form reduces each column
/// with the dispatched dot product.
pub fn gemv<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    op_a: Transpose,
    x: &[T],
    beta: T,
    y: &mut [T],
) {
    let (m, n) = match op_a {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    };
    assert_eq!(x.len(), n, "gemv x length mismatch");
    assert_eq!(y.len(), m, "gemv y length mismatch");
    for v in y.iter_mut() {
        *v *= beta;
    }
    match op_a {
        Transpose::No => {
            // y += alpha * A x, column sweep keeps A accesses contiguous.
            for j in 0..n {
                let s = alpha * x[j];
                if s == T::zero() {
                    continue;
                }
                T::axpy_kernel(s, a.col(j), y);
            }
        }
        Transpose::Yes => {
            for i in 0..m {
                let acc = T::dot_kernel(a.col(i), x);
                y[i] = alpha.mul_add(acc, y[i]);
            }
        }
    }
}

/// Euclidean dot product (runtime-dispatched).
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    T::dot_kernel(x, y)
}

/// Euclidean norm of a vector.
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

/// `y += alpha * x` (runtime-dispatched, bit-identical across paths).
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    T::axpy_kernel(alpha, x, y);
}

/// Estimate the spectral norm of `A` with a few power iterations on `A^T A`.
pub fn norm2_est<T: Scalar>(a: &DenseMatrix<T>, iters: usize) -> T {
    if a.is_empty() {
        return T::zero();
    }
    let n = a.cols();
    let mut x = vec![T::one(); n];
    let nx = nrm2(&x);
    for v in &mut x {
        *v /= nx;
    }
    let mut y = vec![T::zero(); a.rows()];
    let mut sigma = T::zero();
    for _ in 0..iters.max(1) {
        gemv(T::one(), a, Transpose::No, &x, T::zero(), &mut y);
        gemv(T::one(), a, Transpose::Yes, &y, T::zero(), &mut x);
        let nx = nrm2(&x);
        if nx == T::zero() {
            return T::zero();
        }
        for v in &mut x {
            *v /= nx;
        }
        sigma = nx.sqrt();
    }
    sigma
}

/// FLOP count of a GEMM with these dimensions (used by the cost model and the
/// GFLOPS reporting in the experiment harness).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

pub mod reference {
    //! Retained scalar reference kernels.
    //!
    //! These run the exact packed-GEMM structure of [`super::gemm`] but pin
    //! the portable scalar micro-kernel regardless of the runtime dispatch
    //! decision, plus plain sequential-fma loops for GEMV/dot/axpy. The
    //! kernel-equivalence proptest suite compares the dispatched kernels
    //! against these, and the bench grid times simd-vs-scalar through them.

    use super::{DenseMatrix, Scalar, Transpose};
    use crate::simd;

    /// Scalar-pinned GEMM that always takes the packed path: bit-identical
    /// to [`super::gemm`] by construction (same per-element accumulation
    /// order), so it also checks the narrow path against the packed one.
    pub fn gemm<T: Scalar>(
        alpha: T,
        a: &DenseMatrix<T>,
        op_a: Transpose,
        b: &DenseMatrix<T>,
        op_b: Transpose,
        beta: T,
        c: &mut DenseMatrix<T>,
    ) {
        super::gemm_core(alpha, a, op_a, b, op_b, beta, c, true);
    }

    /// Scalar GEMV with sequential fma accumulation.
    pub fn gemv<T: Scalar>(
        alpha: T,
        a: &DenseMatrix<T>,
        op_a: Transpose,
        x: &[T],
        beta: T,
        y: &mut [T],
    ) {
        let (m, n) = match op_a {
            Transpose::No => (a.rows(), a.cols()),
            Transpose::Yes => (a.cols(), a.rows()),
        };
        assert_eq!(x.len(), n, "gemv x length mismatch");
        assert_eq!(y.len(), m, "gemv y length mismatch");
        for v in y.iter_mut() {
            *v *= beta;
        }
        match op_a {
            Transpose::No => {
                for j in 0..n {
                    let s = alpha * x[j];
                    if s == T::zero() {
                        continue;
                    }
                    simd::axpy_scalar(s, a.col(j), y);
                }
            }
            Transpose::Yes => {
                for i in 0..m {
                    let acc = simd::dot_scalar(a.col(i), x);
                    y[i] = alpha.mul_add(acc, y[i]);
                }
            }
        }
    }

    /// Scalar dot product (sequential fma).
    pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
        assert_eq!(x.len(), y.len());
        simd::dot_scalar(x, y)
    }

    /// Scalar axpy.
    pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), y.len());
        simd::axpy_scalar(alpha, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_matmul(a: &DenseMatrix<f64>, b: &DenseMatrix<f64>) -> DenseMatrix<f64> {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 4), (8, 8, 8), (17, 13, 9), (64, 32, 48)] {
            let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
            let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
            let c = matmul(&a, &b);
            let r = naive_matmul(&a, &b);
            assert!(c.sub(&r).norm_max() < 1e-12, "mismatch for {m}x{n}x{k}");
        }
    }

    #[test]
    fn gemm_matches_naive_larger_than_blocks() {
        let mut rng = StdRng::seed_from_u64(12);
        let (m, n, k) = (200, 300, 270);
        let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
        let c = matmul(&a, &b);
        let r = naive_matmul(&a, &b);
        assert!(c.sub(&r).norm_max() < 1e-10);
    }

    #[test]
    fn gemm_transposed_variants() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = DenseMatrix::<f64>::random_uniform(20, 11, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(20, 7, &mut rng);
        // A^T * B
        let c1 = matmul_tn(&a, &b);
        let c2 = naive_matmul(&a.transpose(), &b);
        assert!(c1.sub(&c2).norm_max() < 1e-12);
        // A * A^T
        let d1 = matmul_nt(&a, &a);
        let d2 = naive_matmul(&a, &a.transpose());
        assert!(d1.sub(&d2).norm_max() < 1e-12);
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = DenseMatrix::<f64>::random_uniform(9, 6, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(6, 5, &mut rng);
        let mut c = DenseMatrix::<f64>::random_uniform(9, 5, &mut rng);
        let c0 = c.clone();
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        let mut expect = naive_matmul(&a, &b);
        expect.scale(2.0);
        let mut half_c0 = c0.clone();
        half_c0.scale(0.5);
        expect = expect.add(&half_c0);
        assert!(c.sub(&expect).norm_max() < 1e-12);
    }

    #[test]
    fn dispatched_gemm_is_bit_identical_to_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, n, k) in &[(1, 1, 1), (7, 5, 3), (17, 13, 9), (130, 70, 300)] {
            let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
            let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
            for (oa, ob, ad, bd) in [
                (Transpose::No, Transpose::No, (m, k), (k, n)),
                (Transpose::Yes, Transpose::No, (k, m), (k, n)),
                (Transpose::No, Transpose::Yes, (m, k), (n, k)),
                (Transpose::Yes, Transpose::Yes, (k, m), (n, k)),
            ] {
                let at = DenseMatrix::<f64>::from_fn(ad.0, ad.1, |i, j| {
                    if oa == Transpose::No {
                        a[(i, j)]
                    } else {
                        a[(j, i)]
                    }
                });
                let bt = DenseMatrix::<f64>::from_fn(bd.0, bd.1, |i, j| {
                    if ob == Transpose::No {
                        b[(i, j)]
                    } else {
                        b[(j, i)]
                    }
                });
                let mut c1 = DenseMatrix::<f64>::zeros(m, n);
                let mut c2 = DenseMatrix::<f64>::zeros(m, n);
                gemm(1.0, &at, oa, &bt, ob, 0.0, &mut c1);
                reference::gemm(1.0, &at, oa, &bt, ob, 0.0, &mut c2);
                assert_eq!(c1.data(), c2.data(), "{m}x{n}x{k} {oa:?}/{ob:?}");
            }
        }
    }

    #[test]
    fn gemm_mixed_tracks_full_precision() {
        let mut rng = StdRng::seed_from_u64(22);
        let (m, n, k) = (33, 9, 150);
        let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
        let a32 = a.cast::<f32>();
        let mut c_mixed = DenseMatrix::<f64>::zeros(m, n);
        gemm_mixed(1.0, &a32, &b, 0.0, &mut c_mixed);
        let c_full = matmul(&a, &b);
        // Storage roundoff only: one f32 rounding per A entry, f64 accumulation.
        let bound = f32::EPSILON as f64 * k as f64;
        assert!(
            c_mixed.sub(&c_full).norm_max() < bound,
            "mixed drift {} above {bound}",
            c_mixed.sub(&c_full).norm_max()
        );
    }

    #[test]
    fn gemv_matches_gemm() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = DenseMatrix::<f64>::random_uniform(13, 8, &mut rng);
        let x = DenseMatrix::<f64>::random_uniform(8, 1, &mut rng);
        let mut y = vec![0.0; 13];
        gemv(1.0, &a, Transpose::No, x.col(0), 0.0, &mut y);
        let expect = matmul(&a, &x);
        for i in 0..13 {
            assert!((y[i] - expect[(i, 0)]).abs() < 1e-12);
        }
        // transposed
        let mut z = vec![1.0; 8];
        gemv(1.0, &a, Transpose::Yes, &y, 1.0, &mut z);
        let mut expect_z = matmul_tn(&a, &DenseMatrix::from_vec(13, 1, y.clone()));
        for v in 0..8 {
            expect_z[(v, 0)] += 1.0;
            assert!((z[v] - expect_z[(v, 0)]).abs() < 1e-10);
        }
    }

    #[test]
    fn dot_axpy_nrm2() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        assert!((nrm2(&x) - 14.0f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn norm2_est_on_diagonal_matrix() {
        let mut d = DenseMatrix::<f64>::zeros(6, 6);
        for i in 0..6 {
            d[(i, i)] = (i + 1) as f64;
        }
        let est = norm2_est(&d, 30);
        assert!((est - 6.0).abs() < 1e-6, "est {est}");
    }

    #[test]
    fn gemm_f32_precision() {
        let mut rng = StdRng::seed_from_u64(16);
        let a = DenseMatrix::<f32>::random_uniform(40, 30, &mut rng);
        let b = DenseMatrix::<f32>::random_uniform(30, 20, &mut rng);
        let c = matmul(&a, &b);
        // check one entry against f64 accumulation
        let mut acc = 0.0f64;
        for p in 0..30 {
            acc += a[(5, p)] as f64 * b[(p, 7)] as f64;
        }
        assert!((c[(5, 7)] as f64 - acc).abs() < 1e-4);
    }

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
