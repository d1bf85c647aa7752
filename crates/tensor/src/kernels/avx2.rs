//! The AVX2 register tile behind [`super::mm_nn`] — the crate's only
//! `unsafe` code.
//!
//! The tile keeps an `R × 8V` block of `C` in `__m256` accumulators for
//! the whole contraction: each accumulator starts from `+0.0` (or the
//! loaded `C` when accumulating), takes one product per `p` in ascending
//! order, and is stored once. The products are rounded by
//! `_mm256_mul_ps` and added by `_mm256_add_ps` — two roundings, exactly
//! the scalar `c += a * b` of the portable loop; FMA would round once and
//! is never enabled here. A zero `A[r, p]` skips its product for that row
//! only, as the portable loop does. Every output therefore sees the same
//! IEEE operations on the same operands in the same order as
//! [`super::mm_nn_portable`], so the two bodies agree bit for bit (NaN
//! payloads aside) on every input.
//!
//! Soundness rests on two things only: the [`Avx2`] token, which exists
//! only after the runtime feature check passed, and range re-slices at
//! each entry point, which panic on a short operand before any raw
//! pointer is formed.

use std::arch::x86_64::{
    _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};

use super::{mm_nn_col_tiles, mm_nn_row_tiles, MM_NR, MM_NR_ROW};

/// Lanes per `__m256`.
const LANES: usize = 8;

/// Proof that the running CPU has AVX2. [`Avx2::detect`] is the only
/// constructor, so holding one means `is_x86_feature_detected!("avx2")`
/// returned true in this process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// The token, if this CPU supports AVX2 (std caches the CPUID probe,
    /// so a call costs one atomic load).
    pub(crate) fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// `C = A·B` (or `C += A·B` when `acc`), with `A: [m,k]`, `B: [k,n]`,
    /// `C: [m,n]`; bit-equal to [`super::mm_nn_portable`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn mm_nn(
        self,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        acc: bool,
    ) {
        // SAFETY: `self` exists only after the runtime AVX2 check in
        // `detect` passed, which is the one precondition of calling a
        // `#[target_feature(enable = "avx2")]` function.
        unsafe { mm_nn_avx2(a, b, c, m, k, n, acc) }
    }
}

/// Walks the shared row and column tiling of `super::mm_nn_row_tiles` /
/// `super::mm_nn_col_tiles` (what `tensor::sched` declares): full-width
/// tiles go to the vector [`tile`], the narrow column tail to the scalar
/// [`column_tail`].
#[target_feature(enable = "avx2")]
fn mm_nn_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    let (a, b, c) = (&a[..m * k], &b[..k * n], &mut c[..m * n]);
    if k == 0 {
        if !acc {
            c.fill(0.0);
        }
        return;
    }
    // Column panels outermost: every row block reuses one `k × 64`
    // panel of `B` while it is hot in L1. The panel's tiles are the
    // row-wide tiling restricted to it, because panels start at
    // multiples of `MM_NR_ROW`, itself a multiple of `MM_NR`.
    for p0 in (0..n).step_by(MM_NR_ROW) {
        let p1 = (p0 + MM_NR_ROW).min(n);
        for (i0, i1) in mm_nn_row_tiles(m) {
            let (a, c) = (&a[i0 * k..i1 * k], &mut c[i0 * n..i1 * n]);
            match i1 - i0 {
                1 => row_block::<1>(a, b, c, k, n, p0, p1, acc),
                2 => row_block::<2>(a, b, c, k, n, p0, p1, acc),
                3 => row_block::<3>(a, b, c, k, n, p0, p1, acc),
                _ => row_block::<4>(a, b, c, k, n, p0, p1, acc),
            }
        }
    }
}

/// One block of `R` rows across the column tiles of panel `p0..p1`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
fn row_block<const R: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    p0: usize,
    p1: usize,
    acc: bool,
) {
    for (lo, hi) in mm_nn_col_tiles(R, p1 - p0) {
        let j0 = p0 + lo;
        match hi - lo {
            MM_NR_ROW if R == 1 => {
                tile::<1, { MM_NR_ROW / LANES }>(a, &b[j0..], &mut c[j0..], k, n, acc)
            }
            MM_NR => tile::<R, { MM_NR / LANES }>(a, &b[j0..], &mut c[j0..], k, n, acc),
            _ => column_tail(a, b, c, k, n, j0, acc),
        }
    }
}

/// The `R × 8V` register tile: `a` is the block's `R` rows of `A`, `b`
/// and `c` start at the tile's first column (row stride `n`).
#[target_feature(enable = "avx2")]
fn tile<const R: usize, const V: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    acc: bool,
) {
    // Every offset formed below is `r*k + p < R*k`, `p*n + 8v + 8 <=
    // (k-1)*n + 8V` or `r*n + 8v + 8 <= (R-1)*n + 8V` for `r < R`,
    // `p < k`, `v < V`; these re-slices panic unless each bound holds.
    let a = &a[..R * k];
    let b = &b[..(k - 1) * n + LANES * V];
    let c = &mut c[..(R - 1) * n + LANES * V];
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut t = [[_mm256_setzero_ps(); V]; R];
    if acc {
        for (r, row) in t.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                // SAFETY: `r*n + 8v + 8 <= c.len()` by the re-slice above;
                // AVX2 is enabled on this function.
                *x = unsafe { _mm256_loadu_ps(cp.add(r * n + LANES * v)) };
            }
        }
    }
    for p in 0..k {
        let mut av = [0.0f32; R];
        for (r, x) in av.iter_mut().enumerate() {
            // SAFETY: `r*k + p < R*k == a.len()`. A raw read because
            // every safe form tried (`get`, indexing, row slices, row
            // iterators) kept a per-row length check or reload in this
            // loop and ran the tile 3–20% slower.
            *x = unsafe { *ap.add(r * k + p) };
        }
        if av.iter().all(|&x| x == 0.0) {
            continue;
        }
        let mut bv = [_mm256_setzero_ps(); V];
        for (v, x) in bv.iter_mut().enumerate() {
            // SAFETY: `p*n + 8v + 8 <= (k-1)*n + 8V == b.len()`; AVX2 is
            // enabled on this function.
            *x = unsafe { _mm256_loadu_ps(bp.add(p * n + LANES * v)) };
        }
        for (row, &x) in t.iter_mut().zip(&av) {
            if x == 0.0 {
                continue;
            }
            let s = _mm256_set1_ps(x);
            for (acc_v, &b_v) in row.iter_mut().zip(&bv) {
                *acc_v = _mm256_add_ps(*acc_v, _mm256_mul_ps(s, b_v));
            }
        }
    }
    for (r, row) in t.iter().enumerate() {
        for (v, &x) in row.iter().enumerate() {
            // SAFETY: same bound as the accumulating load; `c` is the
            // unique borrow of these elements.
            unsafe { _mm256_storeu_ps(cp.add(r * n + LANES * v), x) };
        }
    }
}

/// Columns `j0..n` (fewer than one tile) of a row block, one scalar
/// chain per output in the same order as the vector lanes.
fn column_tail(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize, j0: usize, acc: bool) {
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (j, cv) in c_row.iter_mut().enumerate().skip(j0) {
            let mut s = if acc { *cv } else { 0.0 };
            for (&av, &bv) in a_row.iter().zip(b.iter().skip(j).step_by(n)) {
                if av != 0.0 {
                    s += av * bv;
                }
            }
            *cv = s;
        }
    }
}
