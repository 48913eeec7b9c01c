//! Steady-state GEMM calls allocate nothing.
//!
//! The pack buffers and narrow-path accumulators live in a per-thread arena
//! that only grows, so once one call of a shape has sized it, repeating that
//! call must make zero heap allocations. A counting global allocator tallies
//! allocations per thread, which keeps the count free of whatever the test
//! harness's other threads do.

use gofmm_linalg::{gemm, gemm_mixed, DenseMatrix, Transpose};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down its locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump, which itself never allocates (const-initialized `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> usize {
    ALLOCS.with(Cell::get)
}

fn filled(rows: usize, cols: usize, salt: usize) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        ((i * 7 + j * 13 + salt) % 17) as f64 / 8.0 - 1.0
    })
}

/// Warm up once, then require three more calls to allocate nothing.
fn assert_steady_state_allocates_nothing(shape: &str, mut call: impl FnMut()) {
    call();
    let before = allocs_on_this_thread();
    for _ in 0..3 {
        call();
    }
    let made = allocs_on_this_thread() - before;
    assert_eq!(made, 0, "{shape}: {made} allocations after warm-up");
}

/// `C = alpha * op_a(A) * B + beta * C` at `m x n x k`, repeated.
fn check_gemm(m: usize, n: usize, k: usize, op_a: Transpose) {
    let a = match op_a {
        Transpose::No => filled(m, k, 1),
        Transpose::Yes => filled(k, m, 1),
    };
    let b = filled(k, n, 2);
    let mut c = filled(m, n, 3);
    assert_steady_state_allocates_nothing(&format!("{m}x{n}x{k} {op_a:?}"), || {
        gemm(0.5, &a, op_a, &b, Transpose::No, 1.0, &mut c)
    });
}

#[test]
fn narrow_single_column_gemm_allocates_nothing() {
    check_gemm(128, 1, 850, Transpose::No);
}

#[test]
fn narrow_four_column_gemm_allocates_nothing() {
    check_gemm(128, 4, 850, Transpose::No);
}

#[test]
fn packed_gemm_across_cache_blocks_allocates_nothing() {
    // m > MC = 128 and k > KC = 256: several packed A panels and K blocks.
    check_gemm(200, 16, 300, Transpose::No);
}

#[test]
fn transposed_a_gemm_allocates_nothing() {
    // A narrow right-hand side with a transposed A stays on the packed path.
    check_gemm(64, 4, 300, Transpose::Yes);
}

#[test]
fn narrow_mixed_precision_gemm_allocates_nothing() {
    let a32 = filled(128, 850, 1).cast::<f32>();
    let b = filled(850, 1, 2);
    let mut c = filled(128, 1, 3);
    assert_steady_state_allocates_nothing("gemm_mixed 128x1x850", || {
        gemm_mixed(0.5, &a32, &b, 1.0, &mut c)
    });
}
