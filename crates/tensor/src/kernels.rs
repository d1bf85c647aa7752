//! Hot numeric loops shared by the forward and backward passes.
//!
//! The matmul kernels come in the three orientations the backward pass
//! needs (`C = A·B`, `C = A·Bᵀ`, `C = Aᵀ·B`), each with an `accumulate`
//! flag so gradient contributions can be summed in place without a scratch
//! buffer. Whatever the loop order, every `C[i,j]` receives its
//! contributions in ascending `k`, one rounded multiply then one rounded
//! add each, so results are bit-identical to the unblocked loops (a
//! property the batched-decode differential suite relies on, locked by
//! `blocked_kernels_match_unblocked_bitwise`).
//!
//! `mm_nt` and `mm_tn` are cache-blocked: one operand panel (`MM_NC`,
//! `MM_IC`) stays hot across the outer loop. `mm_nn`, which carries the
//! decode step, the projections and the tape's forward matmuls, runs a
//! register tile: `MM_MR` rows × `MM_NR` columns (`MM_NR_ROW` columns for
//! a one-row block, so `m = 1` keeps eight add chains in flight) are held
//! in accumulators across the whole `k` chain, started from `+0.0` or the
//! loaded `C`, and stored once; a column tail narrower than one tile runs
//! scalar in the same order. The tile is explicit AVX2 intrinsics in the
//! `avx2` submodule (the crate's only `unsafe`), chosen at run time by
//! `is_x86_feature_detected!` inside the serial body, so every parallel
//! row chunk takes it too and the build stays portable; a host without
//! AVX2 runs the portable axpy loop (without the k-blocking it once had,
//! which timed the same on the decode shapes in a baseline x86-64 build).
//! Multiply and add stay separate
//! instructions: a fused multiply-add rounds once where the portable loop
//! rounds twice, so FMA would change bits and is never enabled. The
//! exact-zero skip is per `(row, p)` in both bodies, so they agree on
//! every input — `-0.0` in an accumulating `C` and `±inf` in `B`
//! included (`mm_nn_bodies_match_reference_bitwise` calls each body
//! directly).
//!
//! On top of the serial bodies sits a fork-join dispatch layer: when
//! `DATAVIST5_THREADS > 1` and the launch is big enough
//! (`par::plan_workers`), the output rows are split into the contiguous
//! ascending chunks of `par::row_chunks` and each worker runs the serial
//! body on its own disjoint `&mut` row slice. Row splits keep every
//! ascending-`k` reduction chain inside one worker, so multi-core results
//! are bit-identical to single-core at any thread count — the property
//! the `analysis::par` schedule certifier proves statically for the
//! schedules `sched::declared_schedules` exposes, and
//! `parallel_dispatch_matches_serial_bitwise` pins dynamically.
//!
//! # `mm_nn` over a transposed operand equals `mm_nt`, bit for bit
//!
//! For a non-accumulating call, `mm_nn(a, transpose(b))` and
//! `mm_nt(a, b)` produce the same bits whenever every entry of `b` is
//! finite. Both compute each `C[i,j]` as `Σ_p A[i,p]·B[j,p]` in ascending
//! `p`, starting from `+0.0`; `mm_nt` runs it as one serial scalar chain
//! per output, `mm_nn` as one lane of a row-wide vector update. The only
//! other difference is `mm_nn`'s exact-zero skip, and it cannot change a
//! bit: a round-to-nearest sum that starts at `+0.0` never becomes
//! `-0.0` (an exactly cancelling sum rounds to `+0.0`), so adding the
//! `±0` product of a zero `A[i,p]` and a finite `B[j,p]` leaves it
//! unchanged. The preconditions are what break the argument: an infinite
//! or NaN `B[j,p]` times zero is NaN, which `mm_nt` keeps and `mm_nn`
//! skips, and an accumulating call may start from a `-0.0` in `C`.
//! Model weights are finite (the N001 numeric sanitizer polices that),
//! so the packed decode step streams its tied-embedding logits through
//! `mm_nn` over a once-transposed `[d, vocab]` table — the vectorized
//! orientation — and still matches the sequential path's `mm_nt`
//! (`mm_nn_over_transpose_matches_mm_nt_bitwise` pins this).

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;

/// Returns the index of the first non-finite (NaN/Inf) element, if any.
///
/// This is the numeric-sanitizer hook: the kernels themselves never scan
/// (a release-mode step pays nothing), and callers that opt in — the
/// `analysis` crate's sanitizer pass — scan recorded tape values on their
/// own schedule and report the offending op instead of asserting here.
pub fn first_nonfinite(x: &[f32]) -> Option<usize> {
    x.iter().position(|v| !v.is_finite())
}

/// Rows per register tile of [`mm_nn`]'s microkernel.
pub const MM_MR: usize = 4;
/// Columns per register tile of [`mm_nn`]'s microkernel: two 8-lane
/// AVX2 vectors.
pub const MM_NR: usize = 16;
/// Columns per tile when a row block holds a single row (`m = 1`, or a
/// one-row tail): eight vectors, so one row still keeps eight independent
/// add chains in flight.
pub const MM_NR_ROW: usize = 64;
/// Cache-block tile sizes, tuned in release mode with
/// `decode_bench --preset base` (see `BENCH_decode.json` at the repo
/// root): the `n`-tile keeps a `MM_NC × k` panel of `B` hot in `mm_nt`
/// (the attention-score orientation), and the `m`-tile keeps an output
/// panel hot in `mm_tn`.
pub const MM_NC: usize = 128;
/// `m`-dimension tile for [`mm_tn`] (see [`MM_NC`]).
pub const MM_IC: usize = 64;

/// Row blocks `[lo, hi)` of [`mm_nn`]'s microkernel over `m` output rows:
/// [`MM_MR`]-row blocks, then a 1–3 row tail. `sched::declared_schedules`
/// declares this same tiling to the schedule certifier.
pub fn mm_nn_row_tiles(m: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..m)
        .step_by(MM_MR)
        .map(move |lo| (lo, (lo + MM_MR).min(m)))
}

/// Column tiles `[lo, hi)` of [`mm_nn`]'s microkernel over `n` output
/// columns of a `rows`-row block: [`MM_NR_ROW`]-wide tiles first when the
/// block has one row, then [`MM_NR`]-wide tiles, then a tail narrower than
/// [`MM_NR`] that runs scalar. Each tile keeps every output's full
/// ascending-`k` chain.
pub fn mm_nn_col_tiles(rows: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
    let wide_end = if rows == 1 { n - n % MM_NR_ROW } else { 0 };
    let vec_end = n - (n - wide_end) % MM_NR;
    (0..wide_end)
        .step_by(MM_NR_ROW)
        .map(|lo| (lo, lo + MM_NR_ROW))
        .chain(
            (wide_end..vec_end)
                .step_by(MM_NR)
                .map(|lo| (lo, lo + MM_NR)),
        )
        .chain((vec_end < n).then_some((vec_end, n)))
}

/// `C = A·B` (or `C += A·B` when `accumulate`), with `A: [m,k]`, `B: [k,n]`,
/// `C: [m,n]`.
pub fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        a.len(),
        m * k,
        "mm_nn: A has {} elements, want m*k = {m}*{k}",
        a.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        b.len(),
        k * n,
        "mm_nn: B has {} elements, want k*n = {k}*{n}",
        b.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        c.len(),
        m * n,
        "mm_nn: C has {} elements, want m*n = {m}*{n}",
        c.len()
    );
    let workers = crate::par::plan_workers(m, m * k * n);
    if workers <= 1 {
        mm_nn_serial(a, b, c, m, k, n, accumulate);
        return;
    }
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_nn", c, n, &chunks, |_, (lo, hi), chunk| {
        mm_nn_serial(&a[lo * k..hi * k], b, chunk, hi - lo, k, n, accumulate);
    });
}

/// Serial body of [`mm_nn`]; the parallel dispatch runs it per row chunk.
/// Takes the AVX2 register tile when the CPU has it, else the portable
/// loop — the two agree bit for bit.
fn mm_nn_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = avx2::Avx2::detect() {
        isa.mm_nn(a, b, c, m, k, n, acc);
        return;
    }
    mm_nn_portable(a, b, c, m, k, n, acc);
}

/// Which [`mm_nn`] body this host runs: `"avx2"` or `"portable"`.
#[cfg(test)]
pub(crate) fn mm_nn_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::Avx2::detect().is_some() {
        return "avx2";
    }
    "portable"
}

/// Portable body of [`mm_nn`], the fallback on hosts without AVX2: for
/// each row, every nonzero `A[i,p]` in ascending `p` adds its product
/// into the whole `C` row.
fn mm_nn_portable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    if !acc {
        c.fill(0.0);
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// `C = A·Bᵀ` (or `+=`), with `A: [m,k]`, `B: [n,k]`, `C: [m,n]`.
///
/// This is the attention-score orientation (`Q·Kᵀ`) and the `dA = dC·Bᵀ`
/// orientation of the backward pass; both operands stream row-wise.
pub fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        a.len(),
        m * k,
        "mm_nt: A has {} elements, want m*k = {m}*{k}",
        a.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        b.len(),
        n * k,
        "mm_nt: B has {} elements, want n*k = {n}*{k}",
        b.len()
    );
    // hot-ok: shape contract at kernel entry — once per call, amortized over m*k*n work
    assert_eq!(
        c.len(),
        m * n,
        "mm_nt: C has {} elements, want m*n = {m}*{n}",
        c.len()
    );
    let workers = crate::par::plan_workers(m, m * k * n);
    if workers <= 1 {
        mm_nt_serial(a, b, c, m, k, n, accumulate);
        return;
    }
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_nt", c, n, &chunks, |_, (lo, hi), chunk| {
        mm_nt_serial(&a[lo * k..hi * k], b, chunk, hi - lo, k, n, accumulate);
    });
}

/// Serial body of [`mm_nt`]; the parallel dispatch runs it per row chunk.
fn mm_nt_serial(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    // n-blocked: the `[j0..j1, k]` panel of B is reused by every row of A.
    // Each C[i,j] is still one full-`k` register dot product, so results
    // are bit-identical to the unblocked loop.
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + MM_NC).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in j0..j1 {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                    acc += av * bv;
                }
                let slot = &mut c[i * n + j];
                *slot = if accumulate { *slot + acc } else { acc };
            }
        }
        j0 = j1;
    }
}

/// `C = Aᵀ·B` (or `+=`), with `A: [k,m]`, `B: [k,n]`, `C: [m,n]`.
///
/// This is the weight-gradient orientation (`dW = Xᵀ·dY`).
pub fn mm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, accumulate: bool) {
    assert_eq!(
        a.len(),
        k * m,
        "mm_tn: A has {} elements, want k*m = {k}*{m}",
        a.len()
    );
    assert_eq!(
        b.len(),
        k * n,
        "mm_tn: B has {} elements, want k*n = {k}*{n}",
        b.len()
    );
    assert_eq!(
        c.len(),
        m * n,
        "mm_tn: C has {} elements, want m*n = {m}*{n}",
        c.len()
    );
    let workers = crate::par::plan_workers(m, m * k * n);
    if workers <= 1 {
        mm_tn_serial_range(a, b, c, 0, m, m, k, n, accumulate);
        return;
    }
    let chunks = crate::par::row_chunks(m, workers);
    crate::par::run_row_chunks("mm_tn", c, n, &chunks, |_, (lo, hi), chunk| {
        mm_tn_serial_range(a, b, chunk, lo, hi, m, k, n, accumulate);
    });
}

/// Serial body of [`mm_tn`] over output rows `[lo, hi)` of the full
/// `[m, n]` product, with `c` holding exactly those rows. `A` is `[k, m]`,
/// so a row range of `C` is a *column* range of `A` — the parallel
/// dispatch cannot sub-slice `A` the way the other orientations do, hence
/// the explicit range parameters.
#[allow(clippy::too_many_arguments)]
fn mm_tn_serial_range(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    lo: usize,
    hi: usize,
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    if !acc {
        c.fill(0.0);
    }
    // m-blocked: the `[i0..i1, n]` panel of C stays hot across the full
    // k-sweep. Per C[i,j] the p-contributions remain in ascending order,
    // so the sum is bit-identical to the unblocked loop. (Block starts
    // shift with `lo`, but i-blocking only reorders independent rows.)
    let mut i0 = lo;
    while i0 < hi {
        let i1 = (i0 + MM_IC).min(hi);
        for p in 0..k {
            let a_row = &a[p * m + i0..p * m + i1];
            let b_row = &b[p * n..(p + 1) * n];
            for (off, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let i = i0 + off - lo;
                let c_row = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *cv += av * bv;
                }
            }
        }
        i0 = i1;
    }
}

/// Returns the `[cols, rows]` transpose of a row-major `[rows, cols]`
/// matrix.
pub fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(
        x.len(),
        rows * cols,
        "transpose: {} elements, want rows*cols = {rows}*{cols}",
        x.len()
    );
    let mut t = vec![0.0; x.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

/// Copies rows `ids` of a row-major `[rows, d]` source into `dst`
/// (`[len(ids), d]`), the packing step of batched decoding: per-request
/// activations gather into one GEMM operand.
pub fn gather_rows(src: &[f32], d: usize, ids: &[usize], dst: &mut [f32]) {
    assert_eq!(dst.len(), ids.len() * d, "gather_rows: dst size mismatch");
    for (slot, &id) in ids.iter().enumerate() {
        let row = &src[id * d..(id + 1) * d];
        dst[slot * d..(slot + 1) * d].copy_from_slice(row);
    }
}

/// Copies the rows of a packed `[len(ids), d]` source into rows `ids` of
/// `dst` (`[rows, d]`), the unpacking step of batched decoding. Rows of
/// `dst` not named by `ids` are left untouched; duplicate ids write last-
/// one-wins.
pub fn scatter_rows(src: &[f32], d: usize, ids: &[usize], dst: &mut [f32]) {
    assert_eq!(src.len(), ids.len() * d, "scatter_rows: src size mismatch");
    for (slot, &id) in ids.iter().enumerate() {
        let row = &src[slot * d..(slot + 1) * d];
        dst[id * d..(id + 1) * d].copy_from_slice(row);
    }
}

/// Numerically stable softmax applied independently to each `cols`-wide row.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    // hot-ok: shape contract at kernel entry — once per call, amortized over the row sweep
    assert!(cols > 0, "softmax over empty rows");
    debug_assert_eq!(data.len() % cols, 0);
    for row in data.chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Numerically stable log-softmax per row (used by cross entropy).
pub fn log_softmax_rows(data: &mut [f32], cols: usize) {
    assert!(cols > 0, "log_softmax over empty rows");
    debug_assert_eq!(data.len() % cols, 0);
    for row in data.chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.7).sin()).collect()
    }

    #[test]
    fn mm_nn_matches_naive() {
        let (m, k, n) = (3, 5, 4);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        mm_nn(&a, &b, &mut c, m, k, n, false);
        let want = naive_mm(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn mm_nt_matches_naive_on_transposed_b() {
        let (m, k, n) = (4, 3, 5);
        let a = seq(m * k);
        let b_t = seq(n * k); // B stored as [n, k]
        let b = transpose(&b_t, n, k); // [k, n]
        let mut c = vec![0.0; m * n];
        mm_nt(&a, &b_t, &mut c, m, k, n, false);
        let want = naive_mm(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn mm_tn_matches_naive_on_transposed_a() {
        let (m, k, n) = (4, 3, 5);
        let a_t = seq(k * m); // A stored as [k, m]
        let a = transpose(&a_t, k, m); // [m, k]
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        mm_tn(&a_t, &b, &mut c, m, k, n, false);
        let want = naive_mm(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(want.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0; m * n];
        mm_nn(&a, &b, &mut c, m, k, n, true);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 3);
        for row in x.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0];
        softmax_rows(&mut x, 2);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn first_nonfinite_finds_nan_and_inf() {
        assert_eq!(first_nonfinite(&[1.0, 2.0, 3.0]), None);
        assert_eq!(first_nonfinite(&[1.0, f32::NAN, f32::INFINITY]), Some(1));
        assert_eq!(first_nonfinite(&[f32::NEG_INFINITY]), Some(0));
        assert_eq!(first_nonfinite(&[]), None);
    }

    #[test]
    #[should_panic(expected = "mm_nn: A has 3 elements, want m*k = 2*2")]
    fn mm_nn_rejects_wrong_operand_size() {
        let a = vec![0.0; 3];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        mm_nn(&a, &b, &mut c, 2, 2, 2, false);
    }

    /// The pre-blocking loop bodies, kept verbatim as the bitwise
    /// reference: the blocked kernels must not change a single ULP, or the
    /// batched-vs-sequential decode equivalence breaks.
    mod unblocked {
        pub fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
            if !acc {
                c.fill(0.0);
            }
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (p, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        }

        pub fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut dot = 0.0f32;
                    for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                        dot += av * bv;
                    }
                    let slot = &mut c[i * n + j];
                    *slot = if acc { *slot + dot } else { dot };
                }
            }
        }

        pub fn mm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
            if !acc {
                c.fill(0.0);
            }
            for p in 0..k {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for (i, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_kernels_match_unblocked_bitwise() {
        // Sizes straddle every tile boundary (MM_MR = 4, MM_NR = 16,
        // MM_NR_ROW = 64, MM_NC = 128, MM_IC = 64); data includes exact
        // zeros to exercise the skip path.
        let cases = [(1, 1, 1), (3, 63, 5), (7, 64, 129), (65, 130, 257)];
        for &(m, k, n) in &cases {
            let mut a = seq(m * k);
            let mut b = seq(k * n);
            for v in a.iter_mut().step_by(7) {
                *v = 0.0;
            }
            for v in b.iter_mut().step_by(11) {
                *v = 0.0;
            }
            for acc in [false, true] {
                let init: Vec<f32> = seq(m * n);
                // mm_nn: A [m,k], B [k,n].
                let (mut c1, mut c2) = (init.clone(), init.clone());
                mm_nn(&a, &b, &mut c1, m, k, n, acc);
                unblocked::mm_nn(&a, &b, &mut c2, m, k, n, acc);
                assert!(c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()));
                // mm_nt: A [m,k], B [n,k] (reuse b as [n,k] when sizes fit).
                let bt = seq(n * k);
                let (mut c1, mut c2) = (init.clone(), init.clone());
                mm_nt(&a, &bt, &mut c1, m, k, n, acc);
                unblocked::mm_nt(&a, &bt, &mut c2, m, k, n, acc);
                assert!(c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()));
                // mm_tn: A [k,m], B [k,n].
                let at = seq(k * m);
                let (mut c1, mut c2) = (init.clone(), init);
                mm_tn(&at, &b, &mut c1, m, k, n, acc);
                unblocked::mm_tn(&at, &b, &mut c2, m, k, n, acc);
                assert!(c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    /// Sprinkles the values the zero-skip argument hinges on: exact `+0`,
    /// `-0`, subnormals of both signs, and tiny normals whose products
    /// underflow to a signed zero.
    fn with_edge_values(mut x: Vec<f32>, phase: usize) -> Vec<f32> {
        let sub = f32::MIN_POSITIVE / 4.0;
        for (i, v) in x.iter_mut().enumerate() {
            match (i + phase) % 17 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                5 => *v = sub,
                8 => *v = -sub,
                11 => *v = f32::MIN_POSITIVE * if i % 2 == 0 { 1.0 } else { -1.0 },
                _ => {}
            }
        }
        x
    }

    #[test]
    fn mm_nn_over_transpose_matches_mm_nt_bitwise() {
        // The packed decode step's tied-embedding shape (k = d = 96,
        // n = vocab ≈ 1883, several MM_NC tiles) at 1, 3 and 8 rows.
        let k = 96;
        for m in [1, 3, 8] {
            for n in [1882, 1883, 1884] {
                let mut a = with_edge_values(seq(m * k), 0);
                // All-zero rows of both signs: every product skipped.
                if m > 1 {
                    a[k..2 * k].fill(0.0);
                }
                if m > 2 {
                    a[2 * k..3 * k].fill(-0.0);
                }
                let b = with_edge_values(seq(n * k), 7); // [n, k]
                let b_t = transpose(&b, n, k); // [k, n]
                let (mut want, mut got) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
                mm_nt(&a, &b, &mut want, m, k, n, false);
                mm_nn(&a, &b_t, &mut got, m, k, n, false);
                for (idx, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "m={m} n={n} C[{}, {}]: {x:e} vs {y:e}",
                        idx / n,
                        idx % n
                    );
                }
                // A zero row sums to +0.0, never -0.0.
                if m > 2 {
                    assert!(got[n..3 * n].iter().all(|v| v.to_bits() == 0));
                }
            }
        }
    }

    /// Bit equality with NaNs compared as NaN-equal: an `inf - inf` lane
    /// may carry either NaN payload, since the compiler is free to
    /// commute an add's operands.
    fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Both `mm_nn` bodies, called directly, against the unblocked
    /// reference on every tile edge: row tails of 1–3, column tails of
    /// 1–15, exact tile multiples, the one-row wide tile, the logits
    /// shape, and `k` on both sides of 64. Values cover `±0`,
    /// subnormals, underflowing products, `±inf` in `B` (so `inf - inf`
    /// NaNs too), all-zero `A` rows of both signs, and `-0.0` in an
    /// accumulating `C`, which only a skipped product leaves untouched.
    #[test]
    fn mm_nn_bodies_match_reference_bitwise() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = avx2::Avx2::detect();
        #[cfg(target_arch = "x86_64")]
        if avx2.is_none() {
            println!("mm_nn exactness: host lacks AVX2, AVX2 arm skipped");
        }
        let ns: Vec<usize> = (1..=17).chain([96, 192, 1882, 1883, 1884]).collect();
        for m in [1, 2, 3, 4, 5, 8, 9] {
            for &n in &ns {
                for k in [1, 63, 64, 65, 96, 192] {
                    let mut a = with_edge_values(seq(m * k), m);
                    if m > 2 {
                        a[k..2 * k].fill(0.0);
                        a[2 * k..3 * k].fill(-0.0);
                    }
                    let mut b = with_edge_values(seq(k * n), n);
                    for (i, v) in b.iter_mut().enumerate() {
                        match i % 29 {
                            13 => *v = f32::INFINITY,
                            23 => *v = f32::NEG_INFINITY,
                            _ => {}
                        }
                    }
                    let mut init = with_edge_values(seq(m * n), k);
                    for v in init.iter_mut().step_by(5) {
                        *v = -0.0;
                    }
                    for acc in [false, true] {
                        let mut want = init.clone();
                        unblocked::mm_nn(&a, &b, &mut want, m, k, n, acc);
                        let mut bodies: Vec<(&str, Vec<f32>)> = Vec::new();
                        let mut got = init.clone();
                        mm_nn_portable(&a, &b, &mut got, m, k, n, acc);
                        bodies.push(("portable", got));
                        #[cfg(target_arch = "x86_64")]
                        if let Some(isa) = avx2 {
                            let mut got = init.clone();
                            isa.mm_nn(&a, &b, &mut got, m, k, n, acc);
                            bodies.push(("avx2", got));
                        }
                        for (body, got) in &bodies {
                            for (idx, (x, y)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    same_bits(*x, *y),
                                    "{body} m={m} k={k} n={n} acc={acc} C[{}, {}]: {x:e} vs {y:e}",
                                    idx / n,
                                    idx % n
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Names the `mm_nn` body this host dispatches to, so a CI log shows
    /// when the fast path is silently off.
    #[test]
    fn mm_nn_reports_its_isa_arm() {
        let isa = mm_nn_isa();
        println!("mm_nn arm on this host: {isa}");
        assert!(["avx2", "portable"].contains(&isa));
    }

    #[test]
    fn mm_nn_tiles_cover_the_output_once() {
        for m in 0..10 {
            let rows: Vec<_> = mm_nn_row_tiles(m).collect();
            assert_eq!(rows.iter().map(|(lo, hi)| hi - lo).sum::<usize>(), m);
            assert!(rows
                .iter()
                .all(|&(lo, hi)| lo % MM_MR == 0 && hi - lo <= MM_MR));
        }
        for rows in 1..=MM_MR {
            for n in (0..140).chain([1882, 1883, 1884]) {
                let tiles: Vec<_> = mm_nn_col_tiles(rows, n).collect();
                let mut next = 0;
                for &(lo, hi) in &tiles {
                    assert_eq!(lo, next, "rows={rows} n={n}: {tiles:?}");
                    let w = hi - lo;
                    let wide = rows == 1 && w == MM_NR_ROW;
                    assert!(wide || w == MM_NR || (w < MM_NR && hi == n));
                    next = hi;
                }
                assert_eq!(next, n);
                // The AVX2 body walks 64-column panels; restricted to a
                // panel, the tiling is the panel-local one, shifted.
                let panels: Vec<_> = (0..n)
                    .step_by(MM_NR_ROW)
                    .flat_map(|p0| {
                        let p1 = (p0 + MM_NR_ROW).min(n);
                        mm_nn_col_tiles(rows, p1 - p0).map(move |(lo, hi)| (p0 + lo, p0 + hi))
                    })
                    .collect();
                assert_eq!(panels, tiles, "rows={rows} n={n}");
            }
        }
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let x = seq(2 * 3);
        let t = transpose(&x, 2, 3);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(t[c * 2 + r].to_bits(), x[r * 3 + c].to_bits());
            }
        }
        assert_eq!(transpose(&t, 3, 2), x);
    }

    /// Fork-join dispatch must be invisible in the bits: every thread
    /// count produces the same output as the serial path, for every
    /// orientation, with and without accumulation. (Thread config is
    /// process-global; this test flips it, which is safe precisely
    /// because of the property it pins.)
    #[test]
    fn parallel_dispatch_matches_serial_bitwise() {
        let (m, k, n) = (65, 130, 257);
        let mut a = seq(m * k);
        let mut b = seq(k * n);
        for v in a.iter_mut().step_by(7) {
            *v = 0.0;
        }
        for v in b.iter_mut().step_by(11) {
            *v = 0.0;
        }
        let at = seq(k * m);
        let bt = seq(n * k);
        let init = seq(m * n);
        for acc in [false, true] {
            crate::par::set_threads(1);
            let (mut want_nn, mut want_nt, mut want_tn) =
                (init.clone(), init.clone(), init.clone());
            mm_nn(&a, &b, &mut want_nn, m, k, n, acc);
            mm_nt(&a, &bt, &mut want_nt, m, k, n, acc);
            mm_tn(&at, &b, &mut want_tn, m, k, n, acc);
            for t in [2, 3, 4, 8] {
                crate::par::set_threads(t);
                let mut c = init.clone();
                mm_nn(&a, &b, &mut c, m, k, n, acc);
                assert!(
                    c.iter()
                        .zip(&want_nn)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "mm_nn diverges at {t} threads (acc={acc})"
                );
                let mut c = init.clone();
                mm_nt(&a, &bt, &mut c, m, k, n, acc);
                assert!(
                    c.iter()
                        .zip(&want_nt)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "mm_nt diverges at {t} threads (acc={acc})"
                );
                let mut c = init.clone();
                mm_tn(&at, &b, &mut c, m, k, n, acc);
                assert!(
                    c.iter()
                        .zip(&want_tn)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "mm_tn diverges at {t} threads (acc={acc})"
                );
            }
        }
        crate::par::set_threads(1);
    }

    #[test]
    fn gather_scatter_rows_roundtrip() {
        let src = seq(5 * 3);
        let ids = [4usize, 0, 2];
        let mut packed = vec![0.0; ids.len() * 3];
        gather_rows(&src, 3, &ids, &mut packed);
        assert_eq!(&packed[0..3], &src[12..15]);
        assert_eq!(&packed[3..6], &src[0..3]);
        assert_eq!(&packed[6..9], &src[6..9]);
        let mut dst = vec![f32::NAN; 5 * 3];
        scatter_rows(&packed, 3, &ids, &mut dst);
        for &id in &ids {
            assert_eq!(&dst[id * 3..(id + 1) * 3], &src[id * 3..(id + 1) * 3]);
        }
        // Untouched rows keep their prior contents (here: NaN sentinels).
        assert!(dst[3..6].iter().all(|v| v.is_nan()));
        assert!(dst[9..12].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = vec![0.3, -1.2, 2.0, 0.5];
        let mut a = x.clone();
        softmax_rows(&mut a, 4);
        let mut b = x;
        log_softmax_rows(&mut b, 4);
        for (p, lp) in a.iter().zip(b.iter()) {
            assert!((p.ln() - lp).abs() < 1e-5);
        }
    }
}
